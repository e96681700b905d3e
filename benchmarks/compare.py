"""Diff two ``BENCH_*.json`` perf artifacts and flag regressions.

Usage::

    python benchmarks/compare.py BEFORE.json AFTER.json [--threshold 0.10]

Both files are flattened to ``section/key`` paths.  Every numeric value
present in both is printed with its relative change.  Whether higher or
lower is better is read from the key's name, or from its parent's when
the key is a stage name (``live_ms/select``): times (``_ms``,
``_seconds``, ``_s``) and sizes (``_mb``, ``_bytes``) are better lower;
rates (``per_second``, ``per_s``) and ``speedup`` are better higher.
Any other number (a count, a size parameter) is shown but not judged.
A judged value that got worse by more than ``--threshold`` (default
10%) is flagged ``REGRESSION``, and the script exits with status 1 if
any is.  The ``env`` section (git SHA, BLAS, cores) is not compared.
"""

import argparse
import json
import sys

#: name endings whose values are better higher / lower
HIGHER = ("speedup", "per_second", "per_s")
LOWER = ("_ms", "_seconds", "seconds", "_s", "_mb", "_bytes")


def flatten(tree, prefix="") -> dict:
    """``{"a/b": number}`` for every int or float leaf (bools excluded)."""
    flat = {}
    for key, value in tree.items():
        path = f"{prefix}{key}"
        if isinstance(value, dict):
            flat.update(flatten(value, path + "/"))
        elif isinstance(value, (int, float)) and not isinstance(value, bool):
            flat[path] = value
    return flat


def direction(path: str) -> str | None:
    """``"higher"``, ``"lower"`` or ``None`` (not judged) for one path."""
    parts = path.split("/")
    for name in (parts[-1], parts[-2] if len(parts) > 1 else ""):
        if name.endswith(HIGHER):
            return "higher"
        if name.endswith(LOWER):
            return "lower"
    return None


def compare(before: dict, after: dict, threshold: float) -> list:
    """One ``(path, before, after, change, verdict)`` row per shared number.

    ``change`` is ``after / before - 1`` (``None`` when ``before`` is 0);
    ``verdict`` is ``"REGRESSION"``, ``"improved"``, ``""`` (within the
    threshold) or ``"-"`` (not judged).
    """
    old = flatten({k: v for k, v in before.items() if k != "env"})
    new = flatten({k: v for k, v in after.items() if k != "env"})
    rows = []
    for path in sorted(old.keys() & new.keys()):
        a, b = old[path], new[path]
        change = None if a == 0 else b / a - 1.0
        better = direction(path)
        if better is None or change is None:
            verdict = "-"
        else:
            worse = change if better == "lower" else -change
            if worse > threshold:
                verdict = "REGRESSION"
            elif -worse > threshold:
                verdict = "improved"
            else:
                verdict = ""
        rows.append((path, a, b, change, verdict))
    return rows


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("before")
    parser.add_argument("after")
    parser.add_argument("--threshold", type=float, default=0.10)
    args = parser.parse_args(argv)
    with open(args.before) as handle:
        before = json.load(handle)
    with open(args.after) as handle:
        after = json.load(handle)
    rows = compare(before, after, args.threshold)
    width = max((len(row[0]) for row in rows), default=4)
    print(f"{'path':<{width}}  {'before':>12}  {'after':>12}  {'change':>8}")
    for path, a, b, change, verdict in rows:
        shown = "" if change is None else f"{change:+.1%}"
        print(f"{path:<{width}}  {a:>12.6g}  {b:>12.6g}  {shown:>8}  {verdict}")
    for label, sha in (("before", before), ("after", after)):
        print(f"{label}: git_sha {sha.get('env', {}).get('git_sha', '?')}")
    regressions = [row[0] for row in rows if row[4] == "REGRESSION"]
    print(
        f"{len(regressions)} regression(s) over {args.threshold:.0%}"
        + (": " + ", ".join(regressions) if regressions else "")
    )
    return 1 if regressions else 0


if __name__ == "__main__":
    sys.exit(main())
