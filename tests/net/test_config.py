"""ClusterConfig: one dataclass behind the four cluster commands' flags.

The dataclass is the source of truth (field defaults ARE the CLI
defaults); these tests pin the flag names and defaults each command has
always shipped, so the consolidation cannot drift the CLI — the same
contract the differential-CLI gate checks end to end.
"""

from __future__ import annotations

from dataclasses import asdict

import pytest

from repro.cli import build_parser
from repro.net import ClusterConfig, ClusterSpec


class TestFlagContract:
    # The flag sets (and defaults) the pre-dataclass CLI shipped,
    # plus the opt-in --store-dir. Frozen: editing these means a CLI
    # compatibility break.
    LEARNER_DEFAULTS = {
        "actors": 2,
        "envs_per_actor": 4,
        "publish_every": 1,
        "listen": "127.0.0.1:0",
        "heartbeat_timeout": 60.0,
        "cluster_wait": 60.0,
        "store_dir": None,
        "checkpoint_dir": None,
        "checkpoint_every": 0,
        "stop_after": None,
        "resume": False,
        "backpressure_lag": 64,
        "throttle_seconds": 0.05,
    }

    def _defaults(self, command, *required):
        parser = build_parser()
        args = parser.parse_args([command, *required])
        return vars(args)

    def test_serve_learner_defaults(self):
        got = self._defaults("serve-learner")
        for name, default in self.LEARNER_DEFAULTS.items():
            assert got[name] == default, name

    def test_cluster_defaults_add_fleet_knobs(self):
        got = self._defaults("cluster")
        for name, default in self.LEARNER_DEFAULTS.items():
            assert got[name] == default, name
        assert got["farm_workers"] == 0
        assert got["restart_budget"] == 2

    def test_actor_defaults_and_heartbeat_override(self):
        got = self._defaults("actor", "--connect", "h:1")
        assert got["front_cache"] == 50_000
        assert got["heartbeat_timeout"] == 300.0  # actor-specific default
        assert got["reconnect_attempts"] == 8

    def test_farm_worker_defaults(self):
        got = self._defaults("farm-worker")
        assert got["listen"] == "127.0.0.1:0"
        assert got["store_dir"] is None
        assert ClusterConfig.COMMAND_FIELDS["farm-worker"] == ("listen", "store_dir", "obs_dir")

    def test_unknown_command_rejected(self):
        import argparse

        with pytest.raises(ValueError, match="unknown cluster command"):
            ClusterConfig.add_arguments(argparse.ArgumentParser(), "nonsense")


class TestFromArgs:
    def test_parsed_flags_land_on_the_dataclass(self):
        parser = build_parser()
        args = parser.parse_args(
            [
                "cluster", "8",
                "--actors", "3",
                "--heartbeat-timeout", "12.5",
                "--store-dir", "/tmp/curves",
                "--farm-workers", "2",
            ]
        )
        cfg = ClusterConfig.from_args(args)
        assert cfg.actors == 3
        assert cfg.heartbeat_timeout == 12.5
        assert cfg.store_dir == "/tmp/curves"
        assert cfg.farm_workers == 2
        # Flags the command does not expose keep their field defaults.
        assert cfg.front_cache == 50_000

    def test_missing_attrs_fall_back_to_field_defaults(self):
        class Empty:
            pass

        assert ClusterConfig.from_args(Empty()) == ClusterConfig()


class TestSpecCarriage:
    def test_spec_ships_the_config_as_plain_dict(self):
        # ClusterSpec travels over the wire via asdict: the nested config
        # flattens to named keys old actors simply ignore.
        from repro.rl import ScalarizedDoubleDQN

        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        cfg = ClusterConfig(heartbeat_timeout=7.0, store_dir="/tmp/x")
        spec = ClusterSpec.for_agent(agent, envs_per_actor=1, seed=0, config=cfg)
        wire = asdict(spec)
        assert wire["config"]["heartbeat_timeout"] == 7.0
        assert wire["config"]["store_dir"] == "/tmp/x"

    def test_config_defaults_to_the_field_defaults(self):
        from repro.rl import ScalarizedDoubleDQN

        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        spec = ClusterSpec.for_agent(agent, envs_per_actor=1, seed=0)
        assert spec.config == ClusterConfig()
        assert asdict(spec)["config"] == asdict(ClusterConfig())

    def test_for_agent_takes_the_replica_count_from_the_config(self):
        from repro.rl import ScalarizedDoubleDQN

        agent = ScalarizedDoubleDQN(4, blocks=0, channels=4, rng=0)
        assert ClusterSpec.for_agent(agent, config=ClusterConfig(envs_per_actor=3)).envs_per_actor == 3
        assert ClusterSpec.for_agent(
            agent, envs_per_actor=1, config=ClusterConfig(envs_per_actor=3)
        ).envs_per_actor == 1


class TestRangeChecks:
    """An out-of-range knob fails where the config is built, naming its
    field — not in an actor after it joins, nor as a launcher hang."""

    @pytest.mark.parametrize(
        "field, value",
        [
            ("actors", 0), ("publish_every", 0), ("backpressure_lag", -1), ("throttle_seconds", -0.5),
            ("envs_per_actor", 0), ("front_cache", 0), ("farm_workers", -1),
            ("heartbeat_timeout", 0.0), ("heartbeat_timeout", -1.0),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ClusterConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        ClusterConfig(
            actors=1, envs_per_actor=1, publish_every=1, front_cache=1, farm_workers=0,
            heartbeat_timeout=0.001, backpressure_lag=0, throttle_seconds=0.0,
        )
