"""CLI verbs and exit codes, driven through main() directly."""

import hashlib
import json
import subprocess
import sys

import pytest

from nullsim import cli


@pytest.fixture
def scenario_file(tmp_path):
    path = tmp_path / "scn.json"
    path.write_text(json.dumps({"seed": 1}))
    return str(path)


def test_validate_ok(scenario_file, capsys):
    assert cli.main(["validate", scenario_file]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip() == f"{scenario_file}: ok"


def test_validate_rejects_bad_schema(tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(json.dumps({"seed": 1, "bogus": True}))
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    assert "scenario error: unknown_key" in capsys.readouterr().err


@pytest.mark.parametrize(
    "text,rule",
    [
        ('{"search": {"fanout": 10, "depth": 8}}', "tree_too_large"),
        ('{"tx_power": NaN}', "not_finite"),
        ('{"user_angles_deg": [-Infinity]}', "not_finite"),
        ('{"backhaul": {"delay_ms": 1e306}}', "time_not_finite"),
        ('{"tx_power": 1e308}', "power_out_of_range"),
        ('{"channel": {"baseline_inr_db": null, "noise_power": 1e-320}}', "power_out_of_range"),
        ('{"geometry": {"k_antennas": 2048}}', "too_many_antennas"),
        ('{"channel": {"baseline_inr_db": 4000}}', "baseline_inr_out_of_range"),
        ('{"channel": {"baseline_inr_db": 1e-300}}', "baseline_inr_out_of_range"),
        (
            '{"channel": {"noise_power": 1e300, "baseline_inr_db": null}, '
            '"sim": {"noise_jitter": 1e10}}',
            "jitter_out_of_range",
        ),
        ('{"seed": -1}', "seed_negative"),
        ('{"geometry": {"spacing_m": 1e300}}', "spacing_out_of_range"),
    ],
)
def test_validate_rejects_what_the_run_could_not_finish(text, rule, tmp_path, capsys):
    path = tmp_path / "bad.json"
    path.write_text(text)
    assert cli.main(["validate", str(path)]) == cli.EXIT_VALIDATION
    assert f"scenario error: {rule}" in capsys.readouterr().err
    assert cli.main(["run", str(path)]) == cli.EXIT_VALIDATION


def test_a_sweep_duty_without_a_test_slot_fails_validate_and_sweep_up_front(
    tmp_path, capsys
):
    path = tmp_path / "sweep.json"
    path.write_text(
        '{"sim": {"test_slot_ms": 4.0}, "duty_cycle": {"duty": 0.2}, '
        '"sweep": {"duty": [0.05, 0.2]}}'
    )
    for verb in ("validate", "sweep"):
        assert cli.main([verb, str(path)]) == cli.EXIT_VALIDATION
        out = capsys.readouterr()
        assert "scenario error: test_slot_exceeds_on_phase" in out.err
        assert out.out == ""


def test_validate_missing_file(tmp_path, capsys):
    assert cli.main(["validate", str(tmp_path / "nope.json")]) == cli.EXIT_VALIDATION
    assert "error:" in capsys.readouterr().err


def test_run_writes_results(scenario_file, tmp_path, capsys):
    out = tmp_path / "results.json"
    code = cli.main(["run", scenario_file, "--out", str(out)])
    assert code == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert "dINR=" in stdout
    assert f"wrote {out}" in stdout
    (row,) = json.loads(out.read_text())
    assert row["seed"] == 1
    assert row["mode"] == "tree"


def test_seed_override_changes_the_scenario_hash(scenario_file, tmp_path, capsys):
    hashes = []
    for seed in (1, 2):
        out = tmp_path / f"r{seed}.json"
        assert cli.main(
            ["run", scenario_file, "--seed", str(seed), "--out", str(out)]
        ) == cli.EXIT_OK
        hashes.append(json.loads(out.read_text())[0]["scenario_hash"])
    assert hashes[0] != hashes[1]


def test_sweep_runs_declared_grids(tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(
        json.dumps({"sweep": {"duty": [0.2, 1.0], "backhaul_ms": [5.0, 105.0]}})
    )
    out = tmp_path / "sweep_out.csv"
    code = cli.main(["sweep", str(path), "--out", str(out), "--format", "csv"])
    assert code == cli.EXIT_OK
    rows = out.read_text().strip().splitlines()
    assert len(rows) == 1 + 4  # header plus the 2x2 grid


def test_sweep_without_grids_is_an_argument_error(scenario_file, capsys):
    assert cli.main(["sweep", scenario_file]) == cli.EXIT_VALIDATION
    assert "declares no sweep grids" in capsys.readouterr().err


@pytest.mark.parametrize("verb", ["run", "sweep"])
def test_a_negative_seed_override_is_an_argument_error(verb, tmp_path, capsys):
    path = tmp_path / "sweep.json"
    path.write_text(json.dumps({"sweep": {"duty": [0.2]}}))
    assert cli.main([verb, str(path), "--seed", "-1"]) == cli.EXIT_VALIDATION
    assert "scenario error: seed_negative" in capsys.readouterr().err


@pytest.mark.parametrize("repeats", ["0", "-2", "x"])
def test_repeats_must_be_a_positive_integer(repeats, scenario_file, capsys):
    with pytest.raises(SystemExit) as err:
        cli.main(["run", scenario_file, "--repeats", repeats])
    assert err.value.code == cli.EXIT_VALIDATION
    assert "argument --repeats:" in capsys.readouterr().err


def test_repro_prints_a_table(capsys):
    assert cli.main(["repro", "fig7-cable"]) == cli.EXIT_OK
    assert capsys.readouterr().out.strip()


def test_repro_rejects_unknown_figures():
    with pytest.raises(SystemExit) as err:
        cli.main(["repro", "fig99"])
    assert err.value.code == 2


def test_runtime_failures_get_their_own_exit_code(scenario_file, capsys, monkeypatch):
    def boom(*args, **kwargs):
        raise RuntimeError("deliberate")

    monkeypatch.setattr(cli, "run_scenarios", boom)
    assert cli.main(["run", scenario_file]) == cli.EXIT_RUNTIME
    assert "runtime error: RuntimeError: deliberate" in capsys.readouterr().err


def test_module_entry_point(scenario_file):
    proc = subprocess.run(
        [sys.executable, "-m", "nullsim", "validate", scenario_file],
        capture_output=True,
        text=True,
    )
    assert proc.returncode == 0
    assert "ok" in proc.stdout


# sha256 of each `nullsim repro <figure> --format json` export, taken before
# the search tree stopped solving every node up front (Python 3.11, numpy
# 2.4, x86-64); a change that keeps the outputs keeps these digests
REPRO_JSON_SHA256 = {
    "fig7-cable": "55015eee95f53e7bcd3f36e3e90299361b2aadd1dc07818ccbda6eaae8a479b1",
    "fig8-powercorr": "059f0b2a4937722939f72f89b9e7c7f6b248b58c17a27572ed978568e170bcaa",
    "fig9-delay": "891c034e86faebdcd80636e73d64a33ff8054ee799e33712f58934122400ebdc",
    "fig10-multiuser": "4516bf4f55f6acdc7202cc2c921c629ff4a64317e0109db67103583705a38940",
}


@pytest.mark.parametrize("figure", sorted(REPRO_JSON_SHA256))
def test_repro_json_export_matches_its_golden_digest(figure, tmp_path, capsys):
    out = tmp_path / f"{figure}.json"
    code = cli.main(["repro", figure, "--format", "json", "--out", str(out)])
    assert code == cli.EXIT_OK
    assert hashlib.sha256(out.read_bytes()).hexdigest() == REPRO_JSON_SHA256[figure]


# sha256 of each `nullsim repro <figure>` stdout table, taken while each
# runner still ran its own scenario loop (Python 3.11, numpy 2.4, x86-64);
# the tables are formatted from the returned records
REPRO_TABLE_SHA256 = {
    "fig7-cable": "f41d10b2586ed0a8493f188c9f514094d862df985857b5d3965549885660de74",
    "fig8-powercorr": "2056e27c73a3d6a95c2a7974370cab8538b96fecd50a5cd6a7a1f78c75063545",
    "fig9-delay": "5face66b455b4a25610865cb5b4893b67d29d9f205343b19d8acac51f185a9ad",
    "fig10-multiuser": "61105179afd5f6b300234a5abb5e077daaab4f5886cd8202f802b4fe8e0b1805",
}


@pytest.mark.parametrize("figure", sorted(REPRO_TABLE_SHA256))
def test_repro_table_matches_its_golden_digest(figure, capsys):
    assert cli.main(["repro", figure]) == cli.EXIT_OK
    stdout = capsys.readouterr().out
    assert hashlib.sha256(stdout.encode("utf-8")).hexdigest() == REPRO_TABLE_SHA256[figure]
