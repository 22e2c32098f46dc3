"""The deterministic injection engine (charge-sink level)."""

import pytest

from repro.errors import InjectedFault, InjectionError, TaskKilled
from repro.faults.inject import (
    FaultInjector,
    _site_matches,
    delay,
    kill_task,
    raise_error,
)

SITE = "hw.test.site"
OTHER = "hw.test.other"


@pytest.fixture
def clock(kernel):
    return kernel.clock


@pytest.fixture
def injector(kernel):
    injector = FaultInjector()
    kernel.machine.obs.add_sink(injector)
    yield injector
    kernel.machine.obs.remove_sink(injector)


class TestScripted:
    def test_fires_at_exact_occurrence(self, clock, injector):
        injector.arm(SITE, occurrence=2)
        clock.charge(1.0, site=SITE)
        with pytest.raises(InjectedFault) as exc_info:
            clock.charge(1.0, site=SITE)
        assert exc_info.value.site == SITE
        assert exc_info.value.occurrence == 2

    def test_one_shot_does_not_refire(self, clock, injector):
        plan = injector.arm(SITE, occurrence=1)
        with pytest.raises(InjectedFault):
            clock.charge(1.0, site=SITE)
        clock.charge(1.0, site=SITE)  # occurrence 2: no plan
        assert plan.fired == 1
        assert injector.occurrences(SITE) == 2

    def test_other_sites_do_not_count(self, clock, injector):
        injector.arm(SITE, occurrence=1)
        clock.charge(1.0, site=OTHER)
        assert injector.occurrences(SITE) == 0
        with pytest.raises(InjectedFault):
            clock.charge(1.0, site=SITE)

    def test_wildcard_matches_subsystem(self, clock, injector):
        injector.arm("hw.test.*", occurrence=1)
        with pytest.raises(InjectedFault) as exc_info:
            clock.charge(1.0, site=OTHER)
        assert exc_info.value.site == OTHER

    def test_custom_exception_type(self, clock, injector):
        injector.arm(SITE, action=raise_error(MemoryError, "oom"))
        with pytest.raises(MemoryError, match="oom"):
            clock.charge(1.0, site=SITE)

    def test_fired_journal(self, clock, injector):
        injector.arm(SITE, occurrence=1, label="probe")
        with pytest.raises(InjectedFault):
            clock.charge(1.0, site=SITE)
        (record,) = injector.fired
        assert record.site == SITE
        assert record.occurrence == 1
        assert record.label == "probe"


class TestDelay:
    def test_delay_charges_extra_and_conserves(self, kernel, clock,
                                               injector):
        injector.arm(SITE, occurrence=1, action=delay(clock, 500.0))
        before = clock.snapshot()
        clock.charge(10.0, site=SITE)
        assert clock.snapshot() - before == pytest.approx(510.0)
        ok, drift = kernel.machine.obs.audit()
        assert ok, drift

    def test_delay_does_not_recurse(self, clock, injector):
        # The delay re-charges the victim site; the injector suspends
        # itself while firing, so occurrence 2 (the delay's own charge)
        # must not trigger this repeat plan again.
        injector.arm(SITE, occurrence=1, action=delay(clock, 500.0),
                     repeat=True)
        clock.charge(10.0, site=SITE)
        assert len(injector.fired) == 1


class TestSiteMatchPatterns:
    """Wildcard patterns against dotted sites — the cluster arms plans
    on ``net.link.*`` and node-prefixed variants, so the prefix match
    must respect component boundaries."""

    def test_wildcard_matches_dotted_net_sites(self):
        assert _site_matches("net.link.*", "net.link.tx")
        assert _site_matches("net.link.*", "net.link.rx")
        assert _site_matches("net.link.*", "net.link.tx.retry")

    def test_wildcard_matches_the_bare_subsystem(self):
        assert _site_matches("net.link.*", "net.link")

    def test_wildcard_rejects_lookalike_components(self):
        # "net.link.*" must not bleed into sibling subsystems whose
        # names merely share the string prefix.
        assert not _site_matches("net.link.*", "net.linkage.tx")
        assert not _site_matches("net.link.*", "net.cluster.shed")
        assert not _site_matches("net.link.*", "net.li")

    def test_node_prefixed_sites_need_prefixed_patterns(self):
        # Cluster charge taps prefix sites with the node name; an
        # unprefixed pattern must not match across the whole fleet.
        assert not _site_matches("net.link.*", "node0.net.link.tx")
        assert _site_matches("node0.net.link.*", "node0.net.link.tx")
        assert not _site_matches("node0.net.link.*", "node1.net.link.tx")

    def test_exact_pattern_requires_exact_site(self):
        assert _site_matches("net.link.tx", "net.link.tx")
        assert not _site_matches("net.link.tx", "net.link")
        assert not _site_matches("net.link.tx", "net.link.tx.retry")


class TestKillTaskMisuse:
    """kill_task must distinguish "nobody running" (fizzle) from a
    script aimed at the wrong victim (loud InjectionError)."""

    def test_none_victim_fizzles(self, clock, injector):
        injector.arm(SITE, occurrence=1,
                     action=kill_task(None, lambda: None))
        clock.charge(1.0, site=SITE)  # no raise: burned occurrence
        assert len(injector.fired) == 1

    def test_dead_victim_raises_injection_error(self, kernel, process,
                                                clock, injector):
        victim = process.spawn_task()
        victim.enable_signals()
        kernel.scheduler.schedule(victim, charge=False)
        injector.arm(SITE, occurrence=1,
                     action=kill_task(kernel, lambda: victim))
        with pytest.raises(TaskKilled):
            clock.charge(1.0, site=SITE)
        assert victim.state == "dead"
        # Re-aiming a plan at the corpse is a script bug, not a miss.
        injector.arm(SITE, occurrence=2,
                     action=kill_task(kernel, lambda: victim))
        with pytest.raises(InjectionError, match="already dead"):
            clock.charge(1.0, site=SITE)

    def test_foreign_kernel_victim_raises(self, kernel, clock,
                                          injector):
        from repro import Kernel, Machine

        other = Kernel(Machine(num_cores=2))
        foreign = other.create_process().spawn_task()
        foreign.enable_signals()
        injector.arm(SITE, occurrence=1,
                     action=kill_task(kernel, lambda: foreign))
        with pytest.raises(InjectionError, match="foreign kernel"):
            clock.charge(1.0, site=SITE)
        assert foreign.state != "dead"


class TestValidation:
    def test_occurrence_is_one_based(self, injector):
        with pytest.raises(ValueError):
            injector.arm(SITE, occurrence=0)
