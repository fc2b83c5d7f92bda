"""Fails unless each BENCH_<id>.json named holds a non-empty `gates` array
whose every gate passed: `pass` is true and a numeric `value cmp bound` holds."""

import json, operator, sys

HOLDS = {"<": operator.lt, "==": operator.eq, ">": operator.gt}
if len(sys.argv) < 2:
    sys.exit("usage: check_bench.py BENCH_<id>.json...")
failed = False
for path in sys.argv[1:]:
    gates = json.load(open(path)).get("gates") or []
    if not gates:
        print(f"{path}: no gates")
        failed = True
    for g in gates:
        value = g["value"]
        ok = g["pass"] is True and value is not None and HOLDS[g["cmp"]](value, g["bound"])
        print(f"{path}: {g['name']} = {value} {g['cmp']} {g['bound']}: {'ok' if ok else 'FAILED'}")
        failed |= not ok
sys.exit(1 if failed else 0)
