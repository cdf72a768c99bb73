"""Run one ``repro`` CLI command for the benchmark and report on it.

Usage::

    python perfbench/shim.py RESULT_JSON TRACE_DIR -- <repro arguments>

Calls ``repro.harness.cli.main`` with the arguments, exactly as
``python -m repro`` would. ``TRACE_DIR`` ``-`` means untraced; a
directory installs the span wrappers of ``perfbench/spans.py`` first.
Unless ``RESULT_JSON`` is ``-``, it receives the exit code, the
monotonic clock reading when ``main`` returned, the cache root the
command resolved and how many files it held when the command started,
and the ``stats_digest`` and instruction counts of every Figure 11
result, in request order (base, slice, limit per workload).
"""

from __future__ import annotations

import json
import os
import sys
import time
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent))


def main(argv: list[str]) -> int:
    result_path, trace_dir, sep, *args = argv
    if sep != "--":
        raise SystemExit("usage: shim.py RESULT_JSON TRACE_DIR -- ARGS...")
    if trace_dir != "-":
        import spans

        spans.install(trace_dir)
    from repro.harness import cli
    from repro.harness.cache import DEFAULT_CACHE_DIR
    from repro.uarch.stats import stats_digest

    cache_root = Path(os.environ.get("REPRO_CACHE_DIR", DEFAULT_CACHE_DIR))
    root_files = sum(1 for p in cache_root.rglob("*") if p.is_file())

    captured = []
    figure11 = cli.EXPERIMENTS["figure11"]

    def capture(*call_args, **kwargs):
        data, text = figure11(*call_args, **kwargs)
        captured.extend(data)
        return data, text

    cli.EXPERIMENTS["figure11"] = capture
    code = cli.main(args)
    sys.stdout.flush()
    done = time.monotonic()
    if result_path != "-":
        stats = [s for r in captured for s in (r.base, r.assisted, r.limit)]
        Path(result_path).write_text(json.dumps({
            "code": code,
            "done": done,
            "cache_root": str(cache_root),
            "root_files": root_files,
            "digests": [stats_digest(s) for s in stats],
            "insts": sum(s.committed + s.ff_insts for s in stats),
        }))
    return code


if __name__ == "__main__":
    raise SystemExit(main(sys.argv[1:]))
