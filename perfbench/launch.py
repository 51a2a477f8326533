"""Child process of the benchmark: one madlab CLI command, or one set-up.

    python3 perfbench/launch.py [--trace SPANS --group GROUP] cli ARGS...
    python3 perfbench/launch.py [--trace SPANS --group GROUP] setup \
        --seed N KEY=VALUE...

``cli`` runs ``madlab.cli.main(ARGS)`` and exits with its code. ``setup``
imports madlab and generates an in-process workload's datasets in memory.
With ``--trace``, madlab's public functions are wrapped and the spans are
written to SPANS when the command ends. The parent sets PYTHONPATH and the
BLAS thread pins.
"""

from __future__ import annotations

import sys


def main(argv) -> int:
    spans_path = group = None
    if argv[:1] == ["--trace"]:
        spans_path, group, argv = argv[1], argv[3], argv[4:]
    kind, args = argv[0], argv[1:]

    tracer = None
    if spans_path is not None:
        import tracer as tracing
        tracer = tracing.Tracer(group)
        tracing.install(tracer)
    try:
        if kind == "cli":
            from madlab import cli
            return cli.main(args)
        if kind == "setup":
            import workloads
            workloads.build_inputs(args[2:], int(args[1]))
            return 0
        print(f"launch.py: unknown command {kind!r}", file=sys.stderr)
        return 2
    finally:
        if tracer is not None:
            tracer.dump(spans_path)


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
