"""Print each span name's calls, total and self time from a traced run's spans.

    python3 perfbench/shares.py .perfbench_out/spans-s2-cm-L6-seed1.npz

Shares are of the summed duration of `trackers.run_filter`, the filter's
own time without scenario generation, evaluation or output.  The table lists
the span names with the most self time.  Total time counts nested calls of the
same name once per call, so totals of recursive names would double count;
no eotnet layer function is recursive.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

import numpy as np

sys.path.insert(0, str(Path(__file__).resolve().parent))
from tracer import summarize  # noqa: E402

ROOT_SPAN = "trackers.run_filter"
TOP = 25


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("spans", type=Path)
    args = parser.parse_args(argv)

    data = np.load(args.spans)
    stats = summarize([str(n) for n in data["names"]], data["name_id"].tolist(),
                      data["start"].tolist(), data["end"].tolist(), data["parent"].tolist())
    base = stats[ROOT_SPAN].total_s
    print(f"{len(data['name_id'])} spans; shares are of {ROOT_SPAN} total {base:.4f} s")
    print(f"{'span':42s} {'calls':>8s} {'total_s':>9s} {'share':>6s} {'self_s':>9s} {'share':>6s}")
    for name, s in sorted(stats.items(), key=lambda kv: -kv[1].self_s)[:TOP]:
        print(f"{name:42s} {s.calls:8d} {s.total_s:9.4f} {s.total_s / base:6.1%} "
              f"{s.self_s:9.4f} {s.self_s / base:6.1%}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
