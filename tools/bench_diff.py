#!/usr/bin/env python3
"""Diff two ``BENCH_*.json`` artifacts: per-row seconds deltas + speedup summary.

Rows are matched by ``(instance, algorithm)``; for every matched row the
old and new wall times are printed with the delta and the old/new speedup
factor (> 1 means the new artifact is faster).  Rows carrying a
``peak_rss_bytes`` metric on both sides additionally get a memory column,
and the summary reports the peak-RSS delta next to the time totals.  Both
artifacts are schema-validated (``repro.scenarios.schema``) before
diffing.

Usage::

    python tools/bench_diff.py OLD.json NEW.json [--max-regression PCT] \\
        [--max-rss-regression PCT] [--exact]

``--max-regression 20`` exits non-zero if any matched row got more than
20% slower; ``--max-rss-regression`` gates peak RSS the same way — the
knobs CI or a perf PR can use as gates.  Wall times are noisy; pair this
with ``python -m repro run <scenario> --repeat 3``, which records
median-of-K times, before trusting small deltas.  Peak RSS is a process
high-water mark: within one artifact later rows can only grow, so compare
like rows across artifacts, not rows within one.

``--exact`` is a drift gate instead: it ignores timings and exits
non-zero unless every row carries the same deterministic metrics on both
sides — ``coloring_sha``, ``rounds``, ``colors``, ``n``, ``messages``,
``log_sha`` and every ``*_digest``.  Diff a fresh full-size run against
the committed artifact with it to prove a change left the outputs
bit-identical.
"""

from __future__ import annotations

import argparse
import json
import statistics
import sys
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from repro.scenarios.schema import validate_artifact  # noqa: E402


def load_artifact(path: Path) -> tuple[dict, list[str]]:
    try:
        artifact = json.loads(path.read_text())
    except (OSError, json.JSONDecodeError) as exc:
        return {}, [f"{path}: cannot load artifact: {exc}"]
    problems = [f"{path}: {p}" for p in validate_artifact(artifact)]
    return artifact, problems


def rows_by_key(artifact: dict) -> dict[tuple[str, str], dict]:
    return {
        (row["instance"], row["algorithm"]): row
        for row in artifact.get("rows", [])
        if isinstance(row, dict)
    }


def peak_rss(row: dict) -> int | None:
    metrics = row.get("metrics")
    value = metrics.get("peak_rss_bytes") if isinstance(metrics, dict) else None
    return value if isinstance(value, int) and not isinstance(value, bool) else None


#: row metrics that are deterministic functions of the code and the seed
EXACT_METRICS = ("coloring_sha", "rounds", "colors", "n", "messages", "log_sha")


def exact_metrics(row: dict) -> dict:
    metrics = row.get("metrics")
    if not isinstance(metrics, dict):
        return {}
    return {
        key: value for key, value in metrics.items()
        if key in EXACT_METRICS or key.endswith("_digest")
    }


def exact_mismatches(old_rows: dict, new_rows: dict) -> tuple[int, list[str]]:
    """``(metrics compared, mismatch lines)`` over the union of both row sets."""
    compared = 0
    mismatches: list[str] = []
    for key in dict.fromkeys([*old_rows, *new_rows]):
        name = f"{key[0]} / {key[1]}"
        old = exact_metrics(old_rows[key]) if key in old_rows else None
        new = exact_metrics(new_rows[key]) if key in new_rows else None
        if old is None or new is None:
            if old or new:
                side = "new" if old is not None else "old"
                mismatches.append(f"{name}: missing from the {side} artifact")
            continue
        for metric in sorted(old.keys() | new.keys()):
            compared += 1
            before, after = old.get(metric, "<absent>"), new.get(metric, "<absent>")
            if before != after:
                mismatches.append(f"{name}: {metric} {before!r} -> {after!r}")
    return compared, mismatches


def fmt_mib(value: int | None) -> str:
    return f"{value / 2**20:.0f}M" if value is not None else "-"


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        description="Diff two BENCH_*.json artifacts (seconds per row, speedups)."
    )
    parser.add_argument("old", type=Path, help="baseline artifact")
    parser.add_argument("new", type=Path, help="candidate artifact")
    parser.add_argument(
        "--max-regression", type=float, default=None, metavar="PCT",
        help="fail if any matched row is more than PCT%% slower",
    )
    parser.add_argument(
        "--max-rss-regression", type=float, default=None, metavar="PCT",
        help="fail if any matched row's peak_rss_bytes grew more than PCT%%",
    )
    parser.add_argument(
        "--exact", action="store_true",
        help="ignore timings; fail unless every row's deterministic metrics "
             "(coloring_sha, rounds, colors, n, messages, log_sha, *_digest) match",
    )
    args = parser.parse_args(argv)

    old_artifact, problems = load_artifact(args.old)
    new_artifact, new_problems = load_artifact(args.new)
    problems += new_problems
    if problems:
        for problem in problems:
            print(problem, file=sys.stderr)
        return 2

    old_rows = rows_by_key(old_artifact)
    new_rows = rows_by_key(new_artifact)
    if args.exact:
        compared, mismatches = exact_mismatches(old_rows, new_rows)
        print(f"{args.old.name} -> {args.new.name}: {compared} deterministic "
              f"metric(s) over {len(old_rows.keys() | new_rows.keys())} row(s)")
        if mismatches:
            print(f"{len(mismatches)} mismatch(es):", file=sys.stderr)
            for line in mismatches:
                print(f"  {line}", file=sys.stderr)
            return 1
        print("all identical")
        return 0
    matched = [key for key in old_rows if key in new_rows]
    only_old = [key for key in old_rows if key not in new_rows]
    only_new = [key for key in new_rows if key not in old_rows]

    print(f"{args.old.name} ({old_artifact['name']}) -> "
          f"{args.new.name} ({new_artifact['name']}): "
          f"{len(matched)} matched row(s)")
    width = max((len(f"{i} / {a}") for i, a in matched), default=10)
    print(f"\n{'row'.ljust(width)}  {'old s':>9}  {'new s':>9}  "
          f"{'delta s':>9}  speedup  {'old rss':>8}  {'new rss':>8}")
    speedups: list[float] = []
    regressions: list[str] = []
    rss_pairs: list[tuple[int, int]] = []
    for key in matched:
        old_s = float(old_rows[key]["seconds"])
        new_s = float(new_rows[key]["seconds"])
        old_rss = peak_rss(old_rows[key])
        new_rss = peak_rss(new_rows[key])
        if old_s == new_s == 0:
            continue  # synthetic rows (derived speedups etc.) carry no timing
        speedup = old_s / new_s if new_s > 0 else float("inf")
        speedups.append(speedup)
        name = f"{key[0]} / {key[1]}"
        print(f"{name.ljust(width)}  {old_s:>9.4f}  {new_s:>9.4f}  "
              f"{new_s - old_s:>+9.4f}  {speedup:>6.2f}x  "
              f"{fmt_mib(old_rss):>8}  {fmt_mib(new_rss):>8}")
        if (
            args.max_regression is not None
            and old_s > 0
            and (new_s - old_s) / old_s * 100 > args.max_regression
        ):
            regressions.append(
                f"{name}: {old_s:.4f}s -> {new_s:.4f}s "
                f"(+{(new_s - old_s) / old_s * 100:.1f}%)"
            )
        if old_rss is not None and new_rss is not None:
            rss_pairs.append((old_rss, new_rss))
            if (
                args.max_rss_regression is not None
                and old_rss > 0
                and (new_rss - old_rss) / old_rss * 100 > args.max_rss_regression
            ):
                regressions.append(
                    f"{name}: peak RSS {fmt_mib(old_rss)} -> {fmt_mib(new_rss)} "
                    f"(+{(new_rss - old_rss) / old_rss * 100:.1f}%)"
                )

    if speedups:
        total_old = sum(float(old_rows[k]["seconds"]) for k in matched)
        total_new = sum(float(new_rows[k]["seconds"]) for k in matched)
        print(f"\nmedian speedup: {statistics.median(speedups):.2f}x   "
              f"total: {total_old:.3f}s -> {total_new:.3f}s "
              f"({total_old / total_new if total_new > 0 else float('inf'):.2f}x)")
    if rss_pairs:
        old_peak = max(o for o, _ in rss_pairs)
        new_peak = max(n for _, n in rss_pairs)
        print(f"peak RSS over matched rows: {fmt_mib(old_peak)} -> "
              f"{fmt_mib(new_peak)} "
              f"({(new_peak - old_peak) / old_peak * 100:+.1f}%)"
              if old_peak > 0 else
              f"peak RSS over matched rows: {fmt_mib(old_peak)} -> {fmt_mib(new_peak)}")
    for key in only_old:
        print(f"only in {args.old.name}: {key[0]} / {key[1]}")
    for key in only_new:
        print(f"only in {args.new.name}: {key[0]} / {key[1]}")

    if regressions:
        print(f"\n{len(regressions)} row(s) regressed beyond the gate:",
              file=sys.stderr)
        for regression in regressions:
            print(f"  {regression}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
