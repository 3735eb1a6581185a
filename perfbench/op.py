"""One benchmark op: `smartbizsim dmaic` in a fresh interpreter.

    python3 perfbench/op.py STAMP T0_NS [--trace SPANS] -- DMAIC_ARGS...

Runs `smartbizsim.cli.main(["dmaic", *DMAIC_ARGS])` from the checkout's
`src/` exactly as the console script does, and pays everything a user's
invocation pays: interpreter start, imports, loading and validating the
scenario, both runs, pricing and writing the report and traces.

The only addition is a timestamp taken when `costs.load_dmaic_config`
returns, the end of set-up. T0_NS is the parent's monotonic clock just
before it started this process. With `--trace`, the public calls listed
in tracer.py are timed in this process and the spans are written to
SPANS. STAMP receives a JSON summary when the CLI exits 0; the op's exit
code is the CLI's.
"""

from __future__ import annotations

import json
import sys
import time
from pathlib import Path

SRC = Path(__file__).resolve().parent.parent / "src"


def main() -> int:
    stamp_path, t0_ns = sys.argv[1], int(sys.argv[2])
    split = sys.argv.index("--")
    options, dmaic_args = sys.argv[3:split], sys.argv[split + 1:]
    spans_path = options[1] if options[:1] == ["--trace"] else None

    sys.path.insert(0, str(SRC))
    import smartbizsim
    from smartbizsim import cli, costs

    if Path(smartbizsim.__file__).resolve().parent != SRC / "smartbizsim":
        raise SystemExit(f"smartbizsim imported from {smartbizsim.__file__}, not {SRC}")

    tracer = None
    if spans_path:
        import tracer as tracing  # this script's directory is on sys.path

        tracer = tracing.Tracer(op_id=Path(spans_path).stem)
        tracing.install(tracer)

    stamp: dict = {}
    load_config = costs.load_dmaic_config

    def timed_load_config(*args, **kwargs):
        config = load_config(*args, **kwargs)
        stamp["setup_end_ns"] = time.monotonic_ns()
        return config

    costs.load_dmaic_config = timed_load_config
    stamp["main_start_ns"] = time.monotonic_ns()
    code = cli.main(["dmaic", *dmaic_args])
    stamp["main_end_ns"] = time.monotonic_ns()

    if code != 0:
        return code
    if tracer is not None:
        tracer.count_records()
        stamp["stats"] = tracer.stats
        stamp["counters"] = dict(tracer.counters)
        stamp["layer_self_ns"] = tracer.layer_self_ns()
        Path(spans_path).write_text(
            json.dumps({"op": tracer.op_id, "t0_ns": t0_ns,
                        "spans": tracer.spans}) + "\n",
            encoding="utf-8",
        )
        # tracing work after the CLI returned; not the process's own exit time
        stamp["flush_ns"] = time.monotonic_ns() - stamp["main_end_ns"]
    Path(stamp_path).write_text(json.dumps(stamp) + "\n", encoding="utf-8")
    return code


if __name__ == "__main__":
    sys.exit(main())
