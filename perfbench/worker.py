"""One benchmark process: run a workload's rounds through ``cbmlife.cli.main``.

Started by ``run.py``; it imports cbmlife from the checkout's ``src`` only,
runs whole rounds until ``--seconds`` have passed, reads its peak resident
memory before anything else is loaded, and writes ``worker.json`` into
``--out``.  With ``--trace 1`` it alternates untraced and traced rounds, so
that the tracing overhead is measured in one process.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
SRC = HERE.parent / "src"
sys.path.insert(0, str(SRC))
sys.path.insert(0, str(HERE))

from workloads import WORKLOADS  # noqa: E402


def import_cli():
    """cbmlife.cli from the checkout's src; exits if only another copy exists."""
    import cbmlife
    import cbmlife.cli

    if Path(cbmlife.__file__).resolve().parent != SRC / "cbmlife":
        sys.exit(f"cbmlife imported from {cbmlife.__file__}, not from {SRC}")
    return cbmlife.cli


def run_round(cli, workload, config: str, out_dir: Path, tracer=None) -> dict:
    out_dir.mkdir(parents=True)
    commands = []
    wall = 0.0
    cpu = time.process_time()
    for command in workload.commands:
        argv = workload.argv(command, config, str(out_dir))
        error = None
        start = time.perf_counter()
        try:
            if tracer is None:
                code = cli.main(argv)
            else:
                code = tracer.call("cli.main", cli.main, (argv,), {})
        except SystemExit as exc:
            code, error = exc.code, f"SystemExit({exc.code})"
        except Exception as exc:  # a crash is a failed operation, not a crash of the run
            code, error = None, f"{type(exc).__name__}: {exc}"
        wall += time.perf_counter() - start
        commands.append({"argv": argv, "code": code, "error": error})
    return {
        "dir": str(out_dir),
        "wall_s": wall,
        "cpu_s": time.process_time() - cpu,
        "commands": commands,
        "traced": tracer is not None,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__)
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--config", required=True)
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-only", action="store_true",
                        help="time importing cbmlife and parsing the config, then exit")
    args = parser.parse_args(argv)

    if args.setup_only:
        start = time.perf_counter()
        cli = import_cli()
        cli.parse_config(args.config)
        print(repr(time.perf_counter() - start))
        return 0

    cli = import_cli()
    workload = WORKLOADS[args.workload]
    out = Path(args.out)
    tracer = None
    if args.trace:
        from tracing import Tracer

        tracer = Tracer()
    rounds = []
    started = time.perf_counter()
    while True:
        traced = tracer is not None and len(rounds) % 2 == 1
        first_span = len(tracer.spans) if traced else 0
        if traced:
            tracer.reset_counts()
            tracer.install()
        try:
            result = run_round(cli, workload, args.config,
                               out / f"round{len(rounds)}", tracer if traced else None)
        finally:
            if traced:
                tracer.uninstall()
        if traced:
            result["layers"] = tracer.layer_metrics(first_span)
        rounds.append(result)
        done = time.perf_counter() - started >= args.seconds
        if done and (tracer is None or len(rounds) % 2 == 0):
            break
    peak_rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    if tracer is not None:
        tracer.dump(out / "spans.json")
    with open(out / "worker.json", "w") as fh:
        json.dump({"rounds": rounds, "peak_rss_mb": peak_rss_mb}, fh, indent=1)
    return 0


if __name__ == "__main__":
    sys.exit(main())
