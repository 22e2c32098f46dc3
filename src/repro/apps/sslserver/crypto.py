"""Toy RSA used by the simulated TLS stack.

This is *textbook* RSA over small deterministic primes — it exists so
the simulated OpenSSL has a genuine private key whose bytes must be
read from (protected) memory during every decryption.  Cryptographic
strength is explicitly a non-goal; what matters for the reproduction is
*where the key material lives* and *which code paths touch it*.
"""

from __future__ import annotations

from dataclasses import dataclass

# Deterministic 512-bit-ish primes (generated once, hardcoded so that
# the simulation needs no entropy source).
_P = 0xF9A7B3D1F9E37C885D2E1B20E62C81D9F0614D3BF71A24C45F2BB9C1AB83BE87
_Q = 0xE41D87A0C6A5D8F3B06C6C3E0A5AD97E8F9D34BBA61D24A7F3C1E25E27A44D0B


@dataclass(frozen=True)
class RsaPublicKey:
    n: int
    e: int

    def encrypt(self, plaintext: int) -> int:
        if not 0 <= plaintext < self.n:
            raise ValueError("plaintext out of range for modulus")
        return pow(plaintext, self.e, self.n)


class ToyRSA:
    """Keygen + raw RSA primitives with byte-serializable private keys."""

    E = 65537

    @classmethod
    def generate(cls, seed: int = 0) -> tuple[RsaPublicKey, bytes]:
        """Return (public key, serialized private key bytes).

        ``seed`` perturbs the primes deterministically so distinct
        servers get distinct keys without an entropy source.
        """
        p = _next_prime(_P + (seed << 16))
        q = _next_prime(_Q + (seed << 16))
        n = p * q
        phi = (p - 1) * (q - 1)
        d = pow(cls.E, -1, phi)
        return RsaPublicKey(n=n, e=cls.E), cls.serialize_private(n, d)

    # -- private-key (de)serialization: the byte blob an EvpPkey holds --

    @staticmethod
    def serialize_private(n: int, d: int) -> bytes:
        n_bytes = n.to_bytes((n.bit_length() + 7) // 8, "big")
        d_bytes = d.to_bytes((d.bit_length() + 7) // 8, "big")
        header = len(n_bytes).to_bytes(4, "big") + \
            len(d_bytes).to_bytes(4, "big")
        return header + n_bytes + d_bytes

    @staticmethod
    def deserialize_private(blob: bytes) -> tuple[int, int]:
        n_len = int.from_bytes(blob[0:4], "big")
        d_len = int.from_bytes(blob[4:8], "big")
        n = int.from_bytes(blob[8:8 + n_len], "big")
        d = int.from_bytes(blob[8 + n_len:8 + n_len + d_len], "big")
        return n, d

    # Host-side memo for the raw decryption: the 1024-bit modular
    # exponentiation dominates *wall-clock* time at servebench scale
    # (100k+ handshakes), while its simulated cost is a clock charge
    # made by the caller.  Workloads cycle through a bounded set of
    # pre-master secrets, so a small cache removes the host cost
    # without touching any simulated state.  Bounded and cleared when
    # full, so memory stays O(_MEMO_MAX) regardless of run length.
    _MEMO_MAX = 4096
    _decrypt_memo: dict[tuple[bytes, int], int] = {}

    @staticmethod
    def decrypt_with(blob: bytes, ciphertext: int) -> int:
        memo = ToyRSA._decrypt_memo
        key = (blob, ciphertext)
        result = memo.get(key)
        if result is None:
            n, d = ToyRSA.deserialize_private(blob)
            result = pow(ciphertext, d, n)
            if len(memo) >= ToyRSA._MEMO_MAX:
                memo.clear()
            memo[key] = result
        return result


def _next_prime(candidate: int) -> int:
    candidate |= 1
    while not _is_probable_prime(candidate):
        candidate += 2
    return candidate


def _is_probable_prime(n: int, rounds: int = 16) -> bool:
    """Deterministic Miller-Rabin with fixed bases (sufficient here)."""
    if n < 2:
        return False
    small_primes = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
    for p in small_primes:
        if n % p == 0:
            return n == p
    d, r = n - 1, 0
    while d % 2 == 0:
        d //= 2
        r += 1
    for a in small_primes[:rounds]:
        x = pow(a, d, n)
        if x in (1, n - 1):
            continue
        for _ in range(r - 1):
            x = pow(x, 2, n)
            if x == n - 1:
                break
        else:
            return False
    return True
