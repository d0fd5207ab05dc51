"""ClusterConfig and the CLI flag table that exposes it.

The dataclass holds each fleet knob's default and range check; ``cli.py``'s
one flag table declares every flag and takes a field's default from the
dataclass. These tests pin the flag names and defaults each command has
always shipped, so the table cannot drift the CLI — the same contract the
differential-CLI gate checks end to end.
"""

from __future__ import annotations

import math
from dataclasses import asdict, fields

import pytest

from repro import cli
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
        assert set(got) == {"command", "func", "listen", "store_dir", "obs_dir"}


class TestFlagTable:
    def test_every_command_flag_is_declared(self):
        for command, (names, overrides) in cli._COMMANDS.items():
            assert set(names) <= set(cli._FLAGS), command
            assert set(overrides) <= set(names), command

    def test_every_field_is_a_flag_with_the_field_default(self):
        """Each ClusterConfig field is settable from at least one command,
        and every command that exposes it defaults to the field's default —
        except the standalone actor's longer heartbeat."""
        parser = build_parser()
        required = {"actor": ["--connect", "h:1"]}
        parsed = {
            command: vars(parser.parse_args([command, *required.get(command, [])]))
            for command in cli._COMMANDS
        }
        for field in fields(ClusterConfig):
            exposing = [command for command, got in parsed.items() if field.name in got]
            assert exposing, field.name
            for command in exposing:
                want = 300.0 if (command, field.name) == ("actor", "heartbeat_timeout") else field.default
                assert parsed[command][field.name] == want, (command, field.name)


class TestClusterConfigFromFlags:
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
        cfg = cli._cluster_config(args)
        assert cfg.actors == 3
        assert cfg.heartbeat_timeout == 12.5
        assert cfg.store_dir == "/tmp/curves"
        assert cfg.farm_workers == 2
        # Flags the command does not expose keep their field defaults.
        assert cfg.front_cache == 50_000

    def test_flags_a_command_lacks_keep_their_field_defaults(self):
        farm = cli._cluster_config(build_parser().parse_args(["farm-worker"]))
        assert farm == ClusterConfig()
        actor = cli._cluster_config(build_parser().parse_args(["actor", "--connect", "h:1"]))
        assert actor == ClusterConfig(heartbeat_timeout=300.0)


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
            ("restart_budget", -1), ("reconnect_attempts", -3),
            ("cluster_wait", 0.0), ("cluster_wait", -1.0), ("cluster_wait", math.nan), ("cluster_wait", math.inf),
            ("heartbeat_timeout", math.nan), ("heartbeat_timeout", math.inf),
            ("throttle_seconds", math.nan), ("throttle_seconds", math.inf),
        ],
    )
    def test_rejects_out_of_range(self, field, value):
        with pytest.raises(ValueError, match=f"^{field} must be"):
            ClusterConfig(**{field: value})

    def test_boundary_values_are_accepted(self):
        ClusterConfig(
            actors=1, envs_per_actor=1, publish_every=1, front_cache=1, farm_workers=0,
            heartbeat_timeout=0.001, backpressure_lag=0, throttle_seconds=0.0,
            restart_budget=0, reconnect_attempts=0, cluster_wait=0.001,
        )
