"""Serial/sharded/cached parity: the core correctness guarantee.

``build_dataset`` must produce byte-identical dataset JSON (and identical
seed reports and per-iteration snowball statistics) for every engine
configuration: serial or sharded, cache enabled or disabled.
"""

from __future__ import annotations

import json

import pytest

from repro.api import build_dataset
from repro.cli import main
from repro.runtime import ExecutionEngine, ShardingRuntime
from repro.simulation import SimulationParams, build_world


def _engine_matrix() -> dict[str, ExecutionEngine]:
    return {
        "serial-cached": ExecutionEngine(),
        "serial-nocache": ExecutionEngine(cache_enabled=False),
        "sharded-3-inline": ExecutionEngine(
            sharding=ShardingRuntime(shards=3, processes=1)
        ),
        "sharded-2-inline-nocache": ExecutionEngine(
            cache_enabled=False, sharding=ShardingRuntime(shards=2, processes=1)
        ),
    }


def _fingerprint(world) -> dict[str, tuple]:
    """Run every engine configuration and reduce each run to comparables."""
    out = {}
    for name, engine in _engine_matrix().items():
        build = build_dataset(world, engine=engine)
        dataset, seed_report = build.dataset, build.seed_report
        expansion = build.expansion_report
        out[name] = (
            dataset.to_json(),
            build.seed_summary,
            seed_report.candidates,
            tuple(seed_report.rejected_not_contract),
            tuple(seed_report.rejected_not_profit_sharing),
            tuple(seed_report.accepted_contracts),
            tuple(
                (s.iteration, s.accounts_scanned, s.candidates_seen,
                 s.candidates_rejected, s.new_contracts, s.new_operators,
                 s.new_affiliates, s.new_transactions)
                for s in expansion.iterations
            ),
        )
    return out


def _assert_all_equal(fingerprints: dict[str, tuple]) -> None:
    reference = fingerprints["serial-cached"]
    for name, fp in fingerprints.items():
        assert fp == reference, f"{name} diverged from serial-cached"


class TestDatasetParity:
    def test_parity_on_shared_world(self, world):
        """All four configurations agree byte-for-byte at scale 0.02."""
        _assert_all_equal(_fingerprint(world))

    def test_parity_on_tiny_world_different_seed(self):
        world = build_world(SimulationParams(scale=0.01, seed=77))
        _assert_all_equal(_fingerprint(world))

    @pytest.mark.slow
    def test_parity_on_larger_world(self):
        world = build_world(SimulationParams(scale=0.04, seed=9))
        serial = build_dataset(world, engine=ExecutionEngine()).dataset
        sharded = build_dataset(
            world, engine=ExecutionEngine(sharding=ShardingRuntime(shards=4, processes=2))
        ).dataset
        assert sharded.to_json() == serial.to_json()


class TestCliSmoke:
    def test_build_dataset_parallel_end_to_end(self, tmp_path, capsys):
        """`build-dataset --shards 2 --processes 2 --stats` runs the process
        fan-out in every test tier and matches a serial in-process build."""
        out = tmp_path / "dataset.json"
        rc = main([
            "build-dataset", "--scale", "0.01", "--seed", "7",
            "--shards", "2", "--processes", "2", "--stats", "--out", str(out),
        ])
        assert rc == 0
        printed = capsys.readouterr().out
        assert "runtime stats (cache=on)" in printed
        assert "sharding shards=2 processes=2" in printed
        assert f"dataset written to {out}" in printed

        payload = json.loads(out.read_text())
        assert payload["contracts"]

        world = build_world(SimulationParams(scale=0.01, seed=7))
        serial = build_dataset(world).dataset
        assert out.read_text() == serial.to_json()


class TestRuntimeFlags:
    @pytest.mark.parametrize("flags", [
        ["--shards", "-2"],
        ["--processes", "-1"],
        ["--shards", "2", "--processes", "0"],
    ])
    def test_out_of_range_flag_exits_2_naming_it(self, flags, capsys):
        with pytest.raises(SystemExit) as exit_info:
            main(["build-dataset", "--scale", "0.005", *flags])
        assert exit_info.value.code == 2
        error = capsys.readouterr().err.strip().splitlines()[-1]
        assert f"argument {flags[-2]}: must be >=" in error

    @pytest.mark.parametrize("flag", ["--workers", "--chunk-size"])
    def test_thread_pool_flags_are_gone(self, flag):
        with pytest.raises(SystemExit) as exit_info:
            main(["build-dataset", "--scale", "0.005", flag, "2"])
        assert exit_info.value.code == 2
