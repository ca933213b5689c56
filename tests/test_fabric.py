import pytest

from wafermesh.fabric import (
    ConfigError,
    CoreCoord,
    PlmrConfig,
    RoutePath,
    RoutingLedger,
    load_config,
    save_config,
    xy_route,
)


def cfg(**kw):
    base = dict(width=8, height=8, alpha=1, beta=3)
    base.update(kw)
    return PlmrConfig(**base)


class TestConfig:
    def test_defaults(self):
        c = PlmrConfig()
        assert c.alpha == 1 and c.beta == 3
        assert c.route_budget == 32
        assert c.mem_per_core == 48 * 1024
        assert c.macs_per_cycle == 1

    def test_rejects_degenerate_mesh(self):
        with pytest.raises(ConfigError):
            PlmrConfig(width=0, height=4)
        with pytest.raises(ConfigError):
            PlmrConfig(width=4, height=0)

    def test_alpha_beta_order_checked_by_default(self):
        with pytest.raises(ConfigError):
            PlmrConfig(alpha=5, beta=2)
        c = PlmrConfig(alpha=5, beta=2, enforce_latency_order=False)
        assert c.alpha == 5

    def test_route_budget_minimum(self):
        with pytest.raises(ConfigError):
            PlmrConfig(route_budget=2)

    def test_round_trip(self, tmp_path):
        c = PlmrConfig(width=5, height=7, alpha=2, beta=4, route_budget=16,
                       mem_per_core=1024, macs_per_cycle=2)
        path = tmp_path / "fabric.cfg"
        save_config(c, str(path))
        assert load_config(str(path)) == c

    def test_load_missing_section(self, tmp_path):
        path = tmp_path / "bad.cfg"
        path.write_text("[other]\nx = 1\n")
        with pytest.raises(ConfigError):
            load_config(str(path))


class TestXYRoute:
    def test_x_then_y(self):
        route = xy_route(cfg(), CoreCoord(0, 0), CoreCoord(2, 2))
        assert route == [CoreCoord(0, 0), CoreCoord(1, 0), CoreCoord(2, 0),
                         CoreCoord(2, 1), CoreCoord(2, 2)]

    def test_length_matches_hops(self):
        a, b = CoreCoord(5, 1), CoreCoord(2, 6)
        assert len(xy_route(cfg(), a, b)) == abs(a.x - b.x) + abs(a.y - b.y) + 1

    def test_out_of_range(self):
        with pytest.raises(ConfigError):
            xy_route(cfg(width=4, height=4), CoreCoord(0, 0), CoreCoord(4, 0))

    def test_hop_bound_exact(self):
        # XY routing maximum is width+height-2, tighter than the inclusive bound.
        c = cfg(width=4, height=3)
        cores = [CoreCoord(x, y) for x in range(4) for y in range(3)]
        worst = max(len(xy_route(c, a, b)) - 1 for a in cores for b in cores)
        assert worst == 4 + 3 - 2


class TestLedger:
    def test_empty_admits(self):
        ledger = RoutingLedger(cfg())
        result = ledger.install_path(RoutePath(CoreCoord(0, 0), CoreCoord(3, 0)))
        assert result.admitted and not result.relay_required

    def test_saturated_core_forces_relay(self):
        c = cfg(route_budget=3)
        ledger = RoutingLedger(c)
        for _ in range(3):
            assert ledger.install_path(RoutePath(CoreCoord(1, 0), CoreCoord(1, 1))).admitted
        result = ledger.install_path(RoutePath(CoreCoord(0, 0), CoreCoord(2, 0)))
        assert result.relay_required
        assert result.blocked_at == CoreCoord(1, 0)

    def test_budget_count_to_32(self):
        # 32 distinct paths through one core admit; the 33rd requires relay.
        c = PlmrConfig(width=64, height=64)
        ledger = RoutingLedger(c)
        hub = CoreCoord(32, 0)
        admitted = 0
        for i in range(33):
            path = RoutePath(CoreCoord(i, 1), hub)
            if ledger.install_path(path).admitted:
                admitted += 1
        assert admitted == 32
        assert ledger.count(hub) == 32
