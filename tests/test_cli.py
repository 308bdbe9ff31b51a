import csv
import dataclasses
from collections import Counter
import io
import json
import math
import os

import pytest

import cfmatch.baselines
from cfmatch import (ScenarioConfig, RunSpec, load_config, cmd_run, main,
                     run_episode, summarize)
from cfmatch import cli, simulation
from cfmatch.cli import RECORD_COLUMNS


TINY = {"num_aps": 5, "num_ues": 4, "antennas_per_ap": 2, "ap_quota": 3,
        "ue_quota": 2, "num_steps": 2, "noise_var": 1e-7}


def _write_config(tmp_path, payload):
    path = tmp_path / "config.json"
    path.write_text(json.dumps(payload))
    return str(path)


def test_load_config_defaults_when_missing_keys(tmp_path):
    path = _write_config(tmp_path, {"num_ues": 2})
    cfg = load_config(path)
    assert cfg.num_ues == 2
    assert cfg == ScenarioConfig(num_ues=2)


def test_load_config_empty_file_is_defaults(tmp_path):
    path = tmp_path / "empty.json"
    path.write_text("")
    assert load_config(str(path)) == ScenarioConfig()
    assert load_config(None) == ScenarioConfig()


def test_load_config_rejects_out_of_range(tmp_path):
    path = _write_config(tmp_path, {"satisfaction_threshold": 1.5})
    with pytest.raises(ValueError, match="satisfaction_threshold"):
        load_config(path)


def test_load_config_rejects_unknown_key(tmp_path):
    path = _write_config(tmp_path, {"num_apps": 3})
    with pytest.raises(ValueError, match="num_apps"):
        load_config(path)


def test_load_config_rejects_malformed_json(tmp_path):
    path = tmp_path / "bad.json"
    path.write_text("{not json")
    with pytest.raises(ValueError, match="parse"):
        load_config(str(path))
    path2 = tmp_path / "list.json"
    path2.write_text("[1, 2]")
    with pytest.raises(ValueError, match="object"):
        load_config(str(path2))


def test_load_config_coerces_tuple_fields(tmp_path):
    path = _write_config(tmp_path, {"area": [100.0, 50.0],
                                    "demand_set": [1e6, 2e6]})
    cfg = load_config(path)
    assert cfg.area == (100.0, 50.0)
    assert cfg.demand_set == (1e6, 2e6)


def test_runspec_validation():
    with pytest.raises(ValueError, match="strateg"):
        RunSpec(None, [], [1], [1.0], "out", "csv")
    with pytest.raises(ValueError, match="unknown strategy"):
        RunSpec(None, ["nope"], [1], [1.0], "out", "csv")
    with pytest.raises(ValueError, match="seed"):
        RunSpec(None, ["ea"], [], [1.0], "out", "csv")
    with pytest.raises(ValueError, match="seed"):
        RunSpec(None, ["ea"], [-1], [1.0], "out", "csv")
    for seeds in ([1.5], [True], ["1"], [None]):
        with pytest.raises(ValueError, match="seeds"):
            RunSpec(None, ["ea"], seeds, [1.0], "out", "csv")
    for kappa0 in ([1.5], [-0.1], [float("nan")], ["0.5"], [True], [None]):
        with pytest.raises(ValueError, match="kappa0"):
            RunSpec(None, ["ea"], [1], kappa0, "out", "csv")
    with pytest.raises(ValueError, match="seeds must not repeat"):
        RunSpec(None, ["ea"], [1, 2, 1], [1.0], "out", "csv")
    with pytest.raises(ValueError, match="strategies must not repeat"):
        RunSpec(None, ["ea", "bc", "ea"], [1], [1.0], "out", "csv")
    with pytest.raises(ValueError, match="kappa0 values"):
        RunSpec(None, ["ea"], [1], [0.1234567, 0.12345671], "out", "csv")
    RunSpec(None, ["ea"], [1, 2], [0.123456, 0.123457], "out", "csv")
    with pytest.raises(ValueError, match="format"):
        RunSpec(None, ["ea"], [1], [1.0], "out", "yaml")


def test_cmd_run_file_counts_and_schema(tmp_path):
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "results"
    spec = RunSpec(config_path, ["ea", "bc"], [1, 2], [0.8], str(out), "csv")
    assert cmd_run(spec) == 0
    files = sorted(os.listdir(out))
    assert files == ["records_seed1_kappa0.8.csv", "records_seed2_kappa0.8.csv",
                     "summary_seed1_kappa0.8.json", "summary_seed2_kappa0.8.json"]
    with open(out / "records_seed1_kappa0.8.csv", newline="") as f:
        rows = list(csv.reader(f))
    assert rows[0] == RECORD_COLUMNS
    # 2 strategies x 2 timesteps x 4 UEs
    assert len(rows) - 1 == 2 * 2 * 4
    by_col = dict(zip(rows[0], zip(*rows[1:])))
    assert set(by_col["strategy"]) == {"ea", "bc"}
    assert set(by_col["seed"]) == {"1"}
    assert all(v in ("0", "1") for v in by_col["satisfied"])
    kappas = [float(v) for v in by_col["kappa"]]
    assert all(0.0 <= v <= 1.0 for v in kappas)


def test_cmd_run_summary_content(tmp_path):
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "results"
    spec = RunSpec(config_path, ["ea", "cs"], [3], [1.0], str(out), "csv")
    cmd_run(spec)
    with open(out / "summary_seed3_kappa1.json") as f:
        payload = json.load(f)
    assert payload["seed"] == 3
    assert payload["kappa_0"] == 1.0
    assert set(payload["per_strategy"]) == {"ea", "cs"}
    ea = payload["per_strategy"]["ea"]
    assert ea["timesteps"] == 2
    assert 0.0 <= ea["pct_satisfied_mean"] <= 100.0
    assert "favorable_tests_total" in ea
    assert "swap_count_total" in ea
    assert payload["per_strategy"]["cs"]["associations_mean"] == 20.0


def test_cmd_run_reruns_are_byte_identical(tmp_path):
    config_path = _write_config(tmp_path, TINY)
    out_a = tmp_path / "a"
    out_b = tmp_path / "b"
    for out in (out_a, out_b):
        spec = RunSpec(config_path, ["ea", "da"], [5], [0.9], str(out), "csv")
        assert cmd_run(spec) == 0
    for name in os.listdir(out_a):
        with open(out_a / name, "rb") as f:
            a = f.read()
        with open(out_b / name, "rb") as f:
            b = f.read()
        assert a == b, name


def test_cmd_run_json_records_match_csv(tmp_path):
    config_path = _write_config(tmp_path, TINY)
    out_csv = tmp_path / "c"
    out_json = tmp_path / "j"
    cmd_run(RunSpec(config_path, ["bc"], [4], [1.0], str(out_csv), "csv"))
    cmd_run(RunSpec(config_path, ["bc"], [4], [1.0], str(out_json), "json"))
    with open(out_json / "records_seed4_kappa1.json") as f:
        json_rows = json.load(f)
    with open(out_csv / "records_seed4_kappa1.csv", newline="") as f:
        csv_rows = list(csv.DictReader(f))
    assert len(json_rows) == len(csv_rows)
    for jr, cr in zip(json_rows, csv_rows):
        assert jr["strategy"] == cr["strategy"]
        assert jr["timestep"] == int(cr["timestep"])
        assert jr["kappa"] == float(cr["kappa"])
        assert jr["satisfied"] == bool(int(cr["satisfied"]))


def _per_threshold_files(config_path, strategies, seeds, thresholds, fmt):
    """Name -> text of the files of one run_episode per (seed, threshold),
    in the documented records and summary formats."""
    base = load_config(config_path)
    files = {}
    for seed in seeds:
        for k0 in thresholds:
            records = run_episode(
                dataclasses.replace(base, seed=seed, satisfaction_threshold=k0),
                strategies)
            rows = [{"seed": seed, "timestep": r.timestep, "strategy": r.strategy,
                     "kappa_0": k0, "ue_index": k, "kappa": float(r.kappa[k]),
                     "rate_bps": float(r.per_ue_rate[k]),
                     "satisfied": bool(r.kappa[k] >= k0),
                     "associations_total": r.association_count,
                     "quota_violation": r.quota_violation}
                    for r in records for k in range(r.kappa.size)]
            tag = f"seed{seed}_kappa{k0:g}"
            if fmt == "csv":
                buf = io.StringIO()
                writer = csv.writer(buf, lineterminator="\n")
                writer.writerow(RECORD_COLUMNS)
                writer.writerows(
                    [row["seed"], row["timestep"], row["strategy"], repr(row["kappa_0"]),
                     row["ue_index"], repr(row["kappa"]), repr(row["rate_bps"]),
                     int(row["satisfied"]), row["associations_total"],
                     int(row["quota_violation"])] for row in rows)
                files[f"records_{tag}.csv"] = buf.getvalue()
            else:
                files[f"records_{tag}.json"] = json.dumps(rows, indent=2,
                                                          sort_keys=True) + "\n"
            per_strategy = {name: dataclasses.asdict(agg)
                            for name, agg in summarize(records).items()}
            payload = {"seed": seed, "kappa_0": k0, "strategies": strategies,
                       "per_strategy": per_strategy}
            files[f"summary_{tag}.json"] = json.dumps(payload, indent=2,
                                                      sort_keys=True) + "\n"
    return files


@pytest.mark.parametrize("fmt", ["csv", "json"])
def test_cmd_run_sweep_equals_per_threshold_episodes(tmp_path, fmt):
    # one pass per seed serves every threshold, byte for byte
    config_path = _write_config(tmp_path, {**TINY, "num_steps": 3,
                                           "demand_set": [5e6, 100e6]})
    strategies, seeds, thresholds = ["ea", "da", "bc"], [1, 2], [0.5, 0.8, 1.0]
    out = tmp_path / "sweep"
    assert cmd_run(RunSpec(config_path, strategies, seeds, thresholds,
                           str(out), fmt)) == 0
    expected = _per_threshold_files(config_path, strategies, seeds, thresholds, fmt)
    assert sorted(os.listdir(out)) == sorted(expected)
    for name, text in expected.items():
        with open(out / name, "rb") as f:
            assert f.read() == text.encode("utf-8"), name


@pytest.mark.parametrize("thresholds", [[1.0], [0.5, 0.8, 1.0]])
def test_cmd_run_solves_threshold_free_strategies_once_per_step(tmp_path, monkeypatch,
                                                                thresholds):
    # channels, context and every strategy outside THRESHOLD_STRATEGIES
    # run once per step of each seed, however many thresholds there are
    calls = Counter()

    def counting(name, fn):
        def counted(*args):
            calls[name] += 1
            return fn(*args)
        return counted

    monkeypatch.setattr(simulation, "realize_channels",
                        counting("channels", simulation.realize_channels))
    monkeypatch.setattr(simulation, "EvalContext",
                        counting("context", simulation.EvalContext))
    for name in ("ea", "da", "bc"):
        monkeypatch.setitem(cfmatch.baselines.STRATEGIES, name,
                            counting(name, cfmatch.baselines.STRATEGIES[name]))
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "run"
    assert cmd_run(RunSpec(config_path, ["ea", "da", "bc"], [1, 2], thresholds,
                           str(out), "csv")) == 0
    assert len(os.listdir(out)) == 2 * 2 * len(thresholds)
    steps = 2 * TINY["num_steps"]
    assert calls == {"channels": steps, "context": steps, "da": steps, "bc": steps,
                     "ea": steps * len(thresholds)}


def test_cmd_run_interrupted_write_keeps_the_earlier_file(tmp_path, monkeypatch):
    # files are written under a temporary name and renamed into place,
    # so an interrupted rewrite leaves the earlier file whole
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "run"
    out.mkdir()
    earlier = out / "records_seed1_kappa0.8.csv"
    earlier.write_text("seed,timestep\n1,1\n")

    def interrupted(f, rows):
        f.write("seed,timestep\n")
        raise OSError("No space left on device")

    monkeypatch.setattr(cli, "_write_records_csv", interrupted)
    with pytest.raises(OSError, match="No space"):
        cmd_run(RunSpec(config_path, ["bc"], [1], [0.8], str(out), "csv"))
    assert os.listdir(out) == ["records_seed1_kappa0.8.csv"]
    assert earlier.read_text() == "seed,timestep\n1,1\n"


def test_main_write_error_removes_the_run_files(tmp_path, capsys, monkeypatch):
    # the second records file fails mid-write: exit 2, and neither the
    # first pair of files nor any temporary file is left behind
    original = cli._write_records_csv
    calls = []

    def failing(f, rows):
        calls.append(f)
        if len(calls) == 2:
            f.write("seed,timestep\n")
            raise OSError("No space left on device")
        original(f, rows)

    monkeypatch.setattr(cli, "_write_records_csv", failing)
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "run"
    rc = main(["--config", config_path, "--strategies", "bc", "--seeds", "1",
               "--kappa0", "0.8,1", "--out", str(out)])
    assert rc == 2
    assert capsys.readouterr().err == "error: No space left on device\n"
    assert os.listdir(out) == []


def test_main_end_to_end(tmp_path, capsys):
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "run"
    rc = main(["--config", config_path, "--strategies", "ea,bc",
               "--seeds", "1", "--kappa0", "0.8,1", "--out", str(out),
               "--format", "csv"])
    assert rc == 0
    assert len(os.listdir(out)) == 4  # 2 thresholds x (records + summary)
    shown = capsys.readouterr().out
    assert "ea" in shown and "bc" in shown
    assert "%satisfied" in shown


def test_main_rejects_bad_strategy(tmp_path, capsys):
    out = tmp_path / "run"
    rc = main(["--strategies", "ea,bogus", "--out", str(out)])
    assert rc != 0
    assert "bogus" in capsys.readouterr().err
    assert not out.exists() or not os.listdir(out)


def test_main_rejects_bad_kappa0(tmp_path, capsys):
    rc = main(["--kappa0", "1.2", "--out", str(tmp_path / "x")])
    assert rc != 0
    assert "kappa0" in capsys.readouterr().err


@pytest.mark.parametrize("flag, values, field", [
    ("--seeds", "3,3", "seeds"),
    ("--strategies", "ea,bc,ea", "strategies"),
    ("--kappa0", "0.1234567,0.12345671", "kappa0"),
    ("--kappa0", "0.8,0.8", "kappa0"),
])
def test_main_rejects_inputs_sharing_output_files(tmp_path, capsys, flag, values, field):
    # each (seed, threshold) owns the files named by its tag; two inputs
    # with one tag would overwrite each other's results
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "run"
    rc = main(["--config", config_path, "--strategies", "bc", flag, values,
               "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


@pytest.mark.parametrize("field, value", [
    ("max_power", "0.2"),
    ("area", [200, "x"]),
    ("demand_set", [5e6, "fast"]),
    ("shadow_in_db", "false"),
    # JSON's Infinity: each used to run to exit 0 with nan or inf rates written
    ("max_power", math.inf),
    ("bandwidth", math.inf),
    # a step's travel the waypoint loop cannot finish: 1e300 used to hang
    ("ue_speed", 1e7),
    ("ue_speed", 1e5),
    ("ue_speed", 1e300),
])
def test_main_rejects_non_numeric_config_values(tmp_path, capsys, field, value):
    payload = dict(TINY)
    payload[field] = value
    config_path = _write_config(tmp_path, payload)
    out = tmp_path / "run"
    rc = main(["--config", config_path, "--strategies", "bc", "--out", str(out)])
    assert rc == 2
    err = capsys.readouterr().err
    assert err.startswith("error: ") and field in err
    assert "Traceback" not in err
    assert not out.exists()


def test_main_reports_swap_cap_error(tmp_path, capsys, monkeypatch):
    # the cap trips on the second seed, after the first seed's files exist
    original = cfmatch.baselines.swap_matching
    calls = []

    def capped(*args):
        calls.append(args)
        if len(calls) > TINY["num_steps"]:
            raise cfmatch.baselines.SwapCapExceeded("swap refinement exceeded 32 swaps")
        return original(*args)

    monkeypatch.setattr(cfmatch.baselines, "swap_matching", capped)
    config_path = _write_config(tmp_path, TINY)
    out = tmp_path / "run"
    rc = main(["--config", config_path, "--strategies", "da-smp",
               "--seeds", "1,2", "--out", str(out)])
    assert rc == 2
    assert len(calls) == TINY["num_steps"] + 1
    captured = capsys.readouterr()
    assert "seed 1" in captured.out
    assert captured.err == "error: swap refinement exceeded 32 swaps\n"
    assert os.listdir(out) == []


def test_main_defaults_come_from_config(tmp_path):
    # seed and threshold default to the config file's values
    payload = dict(TINY)
    payload["seed"] = 9
    payload["satisfaction_threshold"] = 0.9
    config_path = _write_config(tmp_path, payload)
    out = tmp_path / "d"
    rc = main(["--config", config_path, "--strategies", "bc", "--out", str(out)])
    assert rc == 0
    assert sorted(os.listdir(out)) == ["records_seed9_kappa0.9.csv",
                                       "summary_seed9_kappa0.9.json"]


def test_cli_ea_below_da_smp_at_full_scale(tmp_path):
    # the headline comparison: EA needs far fewer associations than the
    # deferred-acceptance + swap baseline's quota-saturated 160
    config_path = _write_config(tmp_path, {"num_steps": 2})
    out = tmp_path / "full"
    rc = main(["--config", config_path, "--strategies", "ea,da-smp",
               "--seeds", "1", "--out", str(out)])
    assert rc == 0
    with open(out / "summary_seed1_kappa1.json") as f:
        payload = json.load(f)
    ea = payload["per_strategy"]["ea"]["associations_mean"]
    smp = payload["per_strategy"]["da-smp"]["associations_mean"]
    assert smp == 160.0
    assert ea < smp
