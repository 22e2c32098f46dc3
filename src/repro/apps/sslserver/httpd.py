"""An Apache-httpd-like HTTPS server over the simulated SSL library.

The request path mirrors what Figure 11's ApacheBench run exercises:
parse, RSA key exchange (touching the — possibly isolated — private
key), then an AES-style encrypted response whose cost scales with the
response size.  A Heartbleed-style heartbeat endpoint with a missing
bounds check is included for the §6.1 security evaluation.
"""

from __future__ import annotations

import typing

from repro.consts import PAGE_SIZE, PROT_READ, PROT_WRITE
from repro.apps.sslserver.openssl import EvpPkey, SslLibrary

if typing.TYPE_CHECKING:
    from repro.kernel.kcore import Kernel, Process
    from repro.kernel.task import Task

RW = PROT_READ | PROT_WRITE

# Request-path compute costs (cycles).
PARSE_CYCLES = 2_500.0
AES_PER_BYTE = 0.6
CONNECTION_SETUP_CYCLES = 9_000.0

# Distinct pre-master secrets cycled through by the key exchange.  The
# simulated cost is value-independent (the decrypt charge is a
# constant), so the period only bounds the *host-side* working set of
# distinct RSA exponentiations — which keeps ToyRSA's decrypt memo hot
# at 100k+-connection servebench scale.
PRE_MASTER_PERIOD = 64


class HttpServer:
    """One HTTPS worker bound to a process/task of the simulated machine."""

    def __init__(self, kernel: "Kernel", process: "Process", task: "Task",
                 ssl: SslLibrary,
                 recv_buffer_addr: int | None = None) -> None:
        self.kernel = kernel
        self.process = process
        self.ssl = ssl
        # The network receive buffer.  The Heartbleed harness maps one
        # *before* constructing the SSL library, so the key heap lands
        # directly above it in the address space — the adjacency the
        # over-read exploits; by default a fresh buffer is mapped here.
        if recv_buffer_addr is None:
            recv_buffer_addr = kernel.sys_mmap(task, PAGE_SIZE, RW)
        self.recv_buffer = recv_buffer_addr
        self.private_key: EvpPkey = ssl.load_private_key(task)
        self.requests_served = 0
        self.bytes_served = 0
        self._handshake = None  # created by enable_sessions()

    # ------------------------------------------------------------------
    # TLS session support (resumption).
    # ------------------------------------------------------------------

    def enable_sessions(self, capacity: int = 64):
        """Turn on the session cache; returns the TlsHandshake."""
        from repro.apps.sslserver.session import (
            SessionCache,
            TlsHandshake,
        )
        cache = SessionCache(self.ssl, capacity=capacity)
        self._handshake = TlsHandshake(self.ssl, cache,
                                       self.private_key)
        return self._handshake

    def handle_tls_connection(self, task: "Task", response_size: int,
                              requests: int = 1,
                              session_id: bytes | None = None) -> bytes:
        """A session-aware connection: one handshake (full, or resumed
        when ``session_id`` is known), then ``requests`` app requests
        that no longer touch the private key.  Returns the session id
        the client should present next time.
        """
        if self._handshake is None:
            raise RuntimeError("call enable_sessions() first")
        clock = self.kernel.clock
        clock.charge(CONNECTION_SETUP_CYCLES, site="apps.httpd.connect")
        resumed = None
        if session_id is not None:
            resumed = self._handshake.resume_handshake(task, session_id)
        if resumed is None:
            session_id = self._handshake.full_handshake(task).session_id
        for _ in range(requests):
            clock.charge(PARSE_CYCLES + response_size * AES_PER_BYTE,
                         site="apps.httpd.request")
            self.requests_served += 1
            self.bytes_served += response_size
        return session_id

    # ------------------------------------------------------------------
    # The normal request path.
    # ------------------------------------------------------------------

    def handle_request(self, task: "Task", response_size: int) -> bytes:
        """Serve one HTTPS request; returns the (simulated) response."""
        clock = self.kernel.clock
        clock.charge(PARSE_CYCLES, site="apps.httpd.parse")
        # TLS key exchange: the client encrypts a pre-master secret with
        # our public key; we decrypt it with the private key.
        pre_master = (0x1234_5678_9ABC_DEF0
                      + self.requests_served % PRE_MASTER_PERIOD)
        ciphertext = self.private_key.public.encrypt(pre_master)
        recovered = self.ssl.pkey_rsa_decrypt(task, self.private_key,
                                              ciphertext)
        if recovered != pre_master:
            raise RuntimeError("TLS key exchange failed")
        # Encrypt and send the response body.
        clock.charge(response_size * AES_PER_BYTE,
                     site="apps.httpd.aes")
        self.requests_served += 1
        self.bytes_served += response_size
        return b"\x17\x03\x03" + response_size.to_bytes(4, "big")

    def handle_connection(self, task: "Task", response_size: int,
                          requests: int = 1,
                          charge_setup: bool = True) -> None:
        """One client connection: setup plus ``requests`` requests.

        ``charge_setup=False`` lets a load generator that overlaps many
        connections charge the setup once per concurrent wave instead
        of once per connection (see :class:`~repro.apps.sslserver.ab.
        ApacheBench`).
        """
        if charge_setup:
            self.kernel.clock.charge(CONNECTION_SETUP_CYCLES,
                                     site="apps.httpd.connect")
        for _ in range(requests):
            self.handle_request(task, response_size)

    def connection_job(self, task: "Task", response_size: int,
                       requests: int = 1):
        """One client connection as a serving-engine job.

        A generator that yields after the connection setup and after
        every request — the engine's preemption points (and where a
        ``yield from lib.begin_blocking(...)`` would park).  ``task`` is the
        *worker* task serving the connection, so all SSL/libmpk work
        runs with that thread's PKRU, exactly as a multi-worker httpd
        would.
        """
        self.kernel.clock.charge(CONNECTION_SETUP_CYCLES,
                                 site="apps.httpd.connect")
        yield
        for _ in range(requests):
            self.handle_request(task, response_size)
            yield

    # ------------------------------------------------------------------
    # The vulnerable heartbeat path (§6.1's Heartbleed mimicry).
    # ------------------------------------------------------------------

    def handle_heartbeat(self, task: "Task", payload: bytes,
                         claimed_length: int) -> bytes:
        """Echo ``claimed_length`` bytes of the received payload.

        Faithfully reproduces CVE-2014-0160's missing bounds check: the
        response length is taken from the attacker-controlled header,
        so a short payload with a large claimed length over-reads past
        the receive buffer — into whatever is adjacent.
        """
        task.write(self.recv_buffer, payload)
        self.kernel.clock.charge(PARSE_CYCLES,
                                 site="apps.httpd.parse")
        # BUG (intentional): no `claimed_length <= len(payload)` check.
        return task.read(self.recv_buffer, claimed_length)
