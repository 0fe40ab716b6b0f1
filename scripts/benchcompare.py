#!/usr/bin/env python3
"""Compare two BENCH_results.json recordings benchmark-by-benchmark.

Usage:
    scripts/benchcompare.py OLD.json NEW.json [--guard PATTERN MAXRATIO]
                                              [--guard-ns PATTERN MAXRATIO]
                                              [--max-allocs PATTERN MAX]

Prints one line per benchmark present in either file with the % delta for
ns/op and allocs/op (negative = improvement).

With --guard, exits non-zero if any benchmark whose name matches the regex
PATTERN regressed its allocs/op by more than MAXRATIO (e.g. 1.2 = +20%) —
CI uses this to keep the exact-path allocation budget honest. --guard-ns
gates ns/op the same way (use it only for benchmarks whose wall time is
dominated by work that cannot vanish into noise, like the warm-start path
vs its cold baseline). Benchmarks present on only one side are reported
but never fail either guard (they are additions or removals, not
regressions). --max-allocs fails any benchmark in NEW matching PATTERN
whose allocs/op exceeds the absolute bound MAX — the gate for paths whose
baseline is (near) zero allocations, where a ratio cannot bite.
"""
import json
import re
import sys


def load(path):
    with open(path) as f:
        data = json.load(f)
    return {b["name"]: b for b in data.get("benchmarks", [])}


def fmt_delta(old, new):
    if old is None or new is None:
        return "      n/a"
    if old == 0:
        return "     new0" if new else "       0%"
    return f"{100.0 * (new - old) / old:+8.1f}%"


def pop_guard(args, flag):
    if flag not in args:
        return None, None, args
    i = args.index(flag)
    pat = re.compile(args[i + 1])
    ratio = float(args[i + 2])
    return pat, ratio, args[:i] + args[i + 3 :]


def main():
    args = sys.argv[1:]
    guard_pat, guard_ratio, args = pop_guard(args, "--guard")
    ns_pat, ns_ratio, args = pop_guard(args, "--guard-ns")
    max_pat, max_allocs, args = pop_guard(args, "--max-allocs")
    if len(args) != 2:
        sys.exit(__doc__)
    old, new = load(args[0]), load(args[1])

    names = sorted(set(old) | set(new))
    width = max(len(n) for n in names) if names else 10
    print(f"{'benchmark':<{width}}  {'ns/op Δ':>9}  {'allocs Δ':>9}")
    failures = []
    for n in names:
        o, w = old.get(n), new.get(n)
        ons = o.get("ns_per_op") if o else None
        wns = w.get("ns_per_op") if w else None
        oal = o.get("allocs_per_op") if o else None
        wal = w.get("allocs_per_op") if w else None
        print(f"{n:<{width}}  {fmt_delta(ons, wns)}  {fmt_delta(oal, wal)}")
        if (
            guard_pat is not None
            and guard_pat.search(n)
            and oal not in (None, 0)
            and wal is not None
            and wal > oal * guard_ratio
        ):
            failures.append((n, "allocs/op", oal, wal, guard_ratio))
        if (
            ns_pat is not None
            and ns_pat.search(n)
            and ons not in (None, 0)
            and wns is not None
            and wns > ons * ns_ratio
        ):
            failures.append((n, "ns/op", ons, wns, ns_ratio))
        if (
            max_pat is not None
            and max_pat.search(n)
            and wal is not None
            and wal > max_allocs
        ):
            failures.append((n, "allocs/op", oal, wal, None))
    if failures:
        print()
        for n, metric, oval, wval, ratio in failures:
            if ratio is None:
                budget = f"> {max_allocs:g} absolute bound"
            else:
                budget = f"> {ratio:g}x budget"
            print(
                f"GUARD FAIL: {n} {metric} {oval} -> {wval} ({budget})",
                file=sys.stderr,
            )
        sys.exit(1)


if __name__ == "__main__":
    main()
