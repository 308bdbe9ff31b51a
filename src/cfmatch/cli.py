"""Command-line entry point: configure, run episodes, write results.

Config files are flat JSON objects whose keys mirror ScenarioConfig;
missing keys fall back to the defaults.  Each (seed, threshold) pair
produces one records file (per-UE per-timestep rows) and one summary
JSON, with deterministic formatting so reruns are byte-identical.  Each
file is written under a temporary name and renamed into place.
"""

from __future__ import annotations

import argparse
import csv
import json
import os
import sys
from dataclasses import asdict, dataclass, replace, fields

from .channel import ScenarioConfig
from .baselines import STRATEGIES, SwapCapExceeded, get_strategy
# run_episode is not called here, but perfbench/tracing.py wraps it in
# this module's namespace, so the name stays
from .simulation import run_episode, run_sweep, summarize

# Config keys that arrive as JSON lists but live as tuples.
_TUPLE_FIELDS = {"area", "demand_set"}


def load_config(path: str | None) -> ScenarioConfig:
    """Build a ScenarioConfig from a JSON file (or defaults when None).

    Unknown keys and invalid values raise ValueError naming the field.
    An empty file means all defaults.
    """
    if path is None:
        return ScenarioConfig()
    with open(path, "r", encoding="utf-8") as f:
        text = f.read()
    if not text.strip():
        return ScenarioConfig()
    try:
        raw = json.loads(text)
    except json.JSONDecodeError as exc:
        raise ValueError(f"config parse error in {path}: {exc}") from None
    if not isinstance(raw, dict):
        raise ValueError(f"config must be a JSON object, got {type(raw).__name__}")
    known = {f.name for f in fields(ScenarioConfig)}
    merged = {}
    for key, value in raw.items():
        if key not in known:
            raise ValueError(f"unknown config field: {key}")
        if key in _TUPLE_FIELDS and isinstance(value, list):
            value = tuple(value)
        merged[key] = value
    return ScenarioConfig(**merged)


def _kappa_tag(kappa0: float) -> str:
    """How a threshold appears in output file names."""
    return f"{kappa0:g}"


@dataclass
class RunSpec:
    """Validated parameters of one CLI run."""

    config_path: str | None
    strategies: list[str]
    seeds: list[int]
    kappa0_values: list[float]
    out_dir: str
    fmt: str

    def __post_init__(self):
        if not self.strategies:
            raise ValueError("strategies must list at least one strategy")
        for name in self.strategies:
            get_strategy(name)
        if len(set(self.strategies)) < len(self.strategies):
            raise ValueError(f"strategies must not repeat, got {self.strategies}")
        if not self.seeds:
            raise ValueError("seeds must list at least one seed")
        for s in self.seeds:
            if s < 0:
                raise ValueError(f"seeds must be nonnegative, got {s}")
        if len(set(self.seeds)) < len(self.seeds):
            raise ValueError(f"seeds must not repeat, got {self.seeds}")
        if not self.kappa0_values:
            raise ValueError("kappa0 must list at least one threshold")
        tags = {}
        for v in self.kappa0_values:
            if not 0.0 <= v <= 1.0:
                raise ValueError(f"kappa0 values must be in [0, 1], got {v}")
            tag = _kappa_tag(v)
            if tag in tags:
                raise ValueError(f"kappa0 values {tags[tag]!r} and {v!r} would both "
                                 f"write the files tagged kappa{tag}")
            tags[tag] = v
        if self.fmt not in ("csv", "json"):
            raise ValueError(f"format must be 'csv' or 'json', got {self.fmt!r}")


RECORD_COLUMNS = ["seed", "timestep", "strategy", "kappa_0", "ue_index", "kappa",
                  "rate_bps", "satisfied", "associations_total", "quota_violation"]


def _record_rows(seed: int, kappa0: float, records, flag=bool):
    """One tuple per (record, UE) in RECORD_COLUMNS order, generated as
    the writer consumes them; flag converts the two boolean columns."""
    kappa0 = float(kappa0)
    for rec in records:
        columns = zip(rec.kappa.tolist(), rec.per_ue_rate.tolist(),
                      map(flag, (rec.kappa >= kappa0).tolist()))
        for k, (kappa, rate, satisfied) in enumerate(columns):
            yield (seed, rec.timestep, rec.strategy, kappa0, k, kappa, rate, satisfied,
                   rec.association_count, flag(rec.quota_violation))


def _write_records_csv(f, rows) -> None:
    # csv writes each float as its repr, which round-trips exactly
    writer = csv.writer(f, lineterminator="\n")
    writer.writerow(RECORD_COLUMNS)
    writer.writerows(rows)


def _write_json(f, obj) -> None:
    json.dump(obj, f, indent=2, sort_keys=True)
    f.write("\n")


def _write_atomic(path: str, write, newline: str | None = None) -> None:
    """Write a file under a temporary name beside path, then rename it
    to path, so an interrupted write never leaves a truncated file."""
    tmp = os.path.join(os.path.dirname(path), f".{os.path.basename(path)}.tmp")
    try:
        with open(tmp, "w", encoding="utf-8", newline=newline) as f:
            write(f)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def _print_summary(seed: int, kappa0: float, summary) -> None:
    print(f"seed {seed}, threshold {kappa0:g}")
    print(f"  {'strategy':<10} {'%satisfied':>10} {'mean kappa':>11} {'mean assoc':>11}")
    for name, s in summary.items():
        print(f"  {name:<10} {s.pct_satisfied_mean:>10.2f} "
              f"{s.kappa_mean:>11.4f} {s.associations_mean:>11.2f}")


def cmd_run(spec: RunSpec) -> int:
    """Run all (seed, threshold) combinations and write result files.

    Each seed's episode is walked once for all thresholds (run_sweep);
    the files equal those of one run_episode per threshold.
    """
    config = load_config(spec.config_path)
    os.makedirs(spec.out_dir, exist_ok=True)
    written: list[str] = []
    try:
        for seed in spec.seeds:
            per_threshold = run_sweep(replace(config, seed=seed), spec.strategies,
                                      spec.kappa0_values)
            for kappa0, records in zip(spec.kappa0_values, per_threshold):
                summary = summarize(records)
                tag = f"seed{seed}_kappa{_kappa_tag(kappa0)}"
                rec_path = os.path.join(spec.out_dir, f"records_{tag}.{spec.fmt}")
                if spec.fmt == "csv":
                    rows = _record_rows(seed, kappa0, records, flag=int)
                    _write_atomic(rec_path, lambda f: _write_records_csv(f, rows),
                                  newline="")
                else:
                    rows = [dict(zip(RECORD_COLUMNS, row))
                            for row in _record_rows(seed, kappa0, records)]
                    _write_atomic(rec_path, lambda f: _write_json(f, rows))
                written.append(rec_path)
                sum_path = os.path.join(spec.out_dir, f"summary_{tag}.json")
                payload = {"seed": seed, "kappa_0": float(kappa0),
                           "strategies": list(spec.strategies),
                           "per_strategy": {n: asdict(s) for n, s in summary.items()}}
                _write_atomic(sum_path, lambda f: _write_json(f, payload))
                written.append(sum_path)
                _print_summary(seed, kappa0, summary)
    except Exception:
        for p in written:
            if os.path.exists(p):
                os.unlink(p)
        raise
    return 0


def _parse_list(text: str, conv, what: str) -> list:
    out = []
    for part in text.split(","):
        part = part.strip()
        if not part:
            continue
        try:
            out.append(conv(part))
        except ValueError:
            raise ValueError(f"cannot parse {what} value: {part!r}") from None
    return out


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="cfmatch",
        description="Run clustering strategies over seeded mobility episodes.")
    parser.add_argument("--config", default=None, metavar="PATH",
                        help="JSON config file (defaults apply to missing keys)")
    parser.add_argument("--strategies", default=",".join(STRATEGIES),
                        help="comma-separated strategy names (default: all)")
    parser.add_argument("--seeds", default=None,
                        help="comma-separated master seeds (default: config seed)")
    parser.add_argument("--kappa0", default=None,
                        help="comma-separated satisfaction thresholds "
                             "(default: config threshold)")
    parser.add_argument("--out", default="results", metavar="DIR",
                        help="output directory (default: results)")
    parser.add_argument("--format", default="csv", choices=("csv", "json"),
                        help="records file format (default: csv)")
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        base = load_config(args.config)
        seeds = (_parse_list(args.seeds, int, "seed") if args.seeds is not None
                 else [base.seed])
        kappa0 = (_parse_list(args.kappa0, float, "kappa0")
                  if args.kappa0 is not None
                  else [base.satisfaction_threshold])
        spec = RunSpec(config_path=args.config,
                       strategies=_parse_list(args.strategies, str, "strategy"),
                       seeds=seeds,
                       kappa0_values=kappa0,
                       out_dir=args.out,
                       fmt=args.format)
        return cmd_run(spec)
    except (ValueError, OSError, SwapCapExceeded) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
