"""Command-line entry points.

    treeduce generate --seed 1 --events 1048576 --files 8 --out data/
    treeduce serve --root data/ --port 1094 --bandwidth-cap 32Mi
    treeduce reduce --job job.cfg --executors 2 --cores 4 --out out/
    treeduce hist --job job.cfg --spec "bin(40, 0, 200, 'max(Muon_pt)')" --out h.csv
    treeduce bench --experiment size --config bench.cfg --out report/
    treeduce concat --out merged.trf out/part-*.trf

`reduce` and `hist` both run on the engine: the job's inputs are split
into entry-range tasks that run in parallel on local paths or `xrdl://`
URLs. `reduce` writes one part file per task; `hist` fills one partial
histogram per task and merges them in task order into one CSV.
"""

from __future__ import annotations

import argparse
import dataclasses
import signal
import sys
import time
from pathlib import Path

from . import bench, engine, histagg, treefile
from .xrdlite import ServerConfig, XrdError, XrdServer

_SUFFIXES = {
    "k": 1000, "m": 1000**2, "g": 1000**3,
    "ki": 1024, "mi": 1024**2, "gi": 1024**3,
}


def parse_bytes(text: str) -> int:
    """Accepts plain integers plus k/m/g (decimal) and Ki/Mi/Gi (binary) suffixes."""
    raw = text.strip().lower()
    for suffix in sorted(_SUFFIXES, key=len, reverse=True):
        if raw.endswith(suffix):
            return int(raw[: -len(suffix)]) * _SUFFIXES[suffix]
    return int(raw)


def _user_error(command: str, exc: Exception) -> int:
    print(f"{command}: {exc}", file=sys.stderr)
    return 1


def _cmd_generate(args) -> int:
    try:
        spec = bench.GenSpec(
            seed=args.seed,
            n_events=args.events,
            n_files=args.files,
            schema=args.schema,
            basket_target_entries=args.basket_entries,
            codec=treefile.Codec[args.codec.upper()],
        )
    except ValueError as exc:
        return _user_error(args.command, exc)
    manifest = bench.generate(spec, args.out)
    total = sum(f.bytes for f in manifest.files)
    print(f"wrote {len(manifest.files)} files, {manifest.spec.n_events} events each, {total} bytes")
    return 0


def _cmd_serve(args) -> int:
    try:
        server = XrdServer(ServerConfig(args.root, args.host, args.port, args.bandwidth_cap))
    except ValueError as exc:  # a cap of 0 or less, a port outside 0-65535
        return _user_error(args.command, exc)
    signal.signal(signal.SIGTERM, _interrupt)
    server.start()
    try:
        host, port = server.address
        print(f"serving {args.root} on {host}:{port}"
              + (f" capped at {args.bandwidth_cap} B/s" if args.bandwidth_cap else ""))
        while True:
            time.sleep(3600)
    except KeyboardInterrupt:
        pass
    finally:
        server.stop()
    print(f"stopped: {server.counters().summary()}")
    return 0


def _interrupt(signum, frame):
    """Stop ``serve`` on SIGTERM as on SIGINT."""
    raise KeyboardInterrupt


def _load_job(args) -> engine.JobSpec:
    job = engine.load_job_file(args.job)
    if getattr(args, "out", None):
        job.output = args.out
    return job


def _engine_config(args) -> engine.EngineConfig:
    return engine.EngineConfig(executors=args.executors, cores_per_executor=args.cores)


def _cmd_reduce(args) -> int:
    result = engine.run(_load_job(args), _engine_config(args))
    print(result.manifest.table())
    print()
    print(result.metrics.summary_table())
    return 0


def _cmd_hist(args) -> int:
    job = engine.load_job_file(args.job)
    agg = histagg.parse_hist_spec(args.spec)
    if not isinstance(agg, histagg.Bin):  # refused before any input is read
        raise histagg.HistError(f"spec {args.spec!r} has no bin(...) at top level to write")
    result = engine.fill(job, _engine_config(args), agg)
    Path(args.out).write_text(histagg.render(result.aggregate))
    print(f"filled {result.metrics.entries_out} events into {args.out}")
    return 0


def _parse_worker_grid(text: str) -> tuple[tuple[int, int], ...]:
    grid = []
    for part in text.split(","):
        executors, _, cores = part.strip().partition("x")
        grid.append((int(executors), int(cores)))
    return tuple(grid)


def _parse_list(parse):
    return lambda text: tuple(parse(item) for item in text.split(","))


# each key a bench config may set: the ExperimentSpec field it sets, and how
# its value is read; a key left out keeps the field's default
_BENCH_KEYS = {
    "data_dir": ("data_dir", str),  # default <out>/data
    "seed": ("seed", int),
    "events": ("n_events", parse_bytes),
    "files": ("n_files", int),
    "repetitions": ("repetitions", int),
    "multiples": ("multiples", _parse_list(int)),
    "workers": ("worker_grid", _parse_worker_grid),
    "read_aheads": ("read_aheads", _parse_list(parse_bytes)),
    "bandwidth_cap": ("bandwidth_cap", parse_bytes),
    "partition_entries": ("partition_entries", int),
    "executors": ("executors", int),
    "cores": ("cores_per_executor", int),
}


def _bench_spec(args) -> bench.ExperimentSpec:
    """The experiment ``args`` ask for, with the settings of its ``--config`` file.

    Each line is applied in turn and the spec checked after it, so an error
    names the line that caused it.
    """
    spec = bench.ExperimentSpec(args.experiment, str(Path(args.out) / "data"), args.out)
    if args.config is None:
        return spec
    for place, key, value in engine.read_settings(args.config, _BENCH_KEYS):
        name, parse = _BENCH_KEYS[key]
        try:
            spec = dataclasses.replace(spec, **{name: parse(value)})
        except ValueError as exc:
            raise engine.EngineError(f"{place}: {exc}") from None
    return spec


def _cmd_bench(args) -> int:
    spec = _bench_spec(args)
    result = bench.run_experiment(spec)
    paths = bench.write_report(args.experiment, result, args.out)
    print(f"report: {paths['csv']} {paths['markdown']}")
    return 0


def _cmd_concat(args) -> int:
    inputs = list(args.inputs)
    if args.manifest:
        manifest = engine.Manifest.read_jsonl(args.manifest)
        for entry in manifest.entries:  # a part swapped since its run must not merge
            with treefile.open_file(entry.path) as reader:
                n = reader.tree().n_entries
            if n != entry.entries:
                message = f"{entry.path}: {n} entries, manifest says {entry.entries}"
                raise engine.EngineError(message)
        inputs = manifest.paths() + inputs
    if not inputs:
        print("concat: no inputs", file=sys.stderr)
        return 1
    total = treefile.concat_files(inputs, args.out)
    print(f"wrote {args.out}: {total} entries from {len(inputs)} files")
    return 0


def _add_engine_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("--executors", type=int, default=1)
    p.add_argument("--cores", type=int, default=engine.usable_cores(),
                   help="cores per executor (default: the CPUs this process may use)")


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="treeduce", description=__doc__)
    sub = parser.add_subparsers(dest="command", required=True)

    gen = bench.GenSpec()
    p = sub.add_parser("generate", help="write a synthetic dataset")
    p.add_argument("--seed", type=int, default=gen.seed)
    p.add_argument("--events", type=parse_bytes, default=gen.n_events, help="events per file")
    p.add_argument("--files", type=int, default=gen.n_files)
    p.add_argument("--out", required=True)
    p.add_argument("--schema", choices=("demo", "flat8"), default=gen.schema)
    p.add_argument("--basket-entries", type=int, default=gen.basket_target_entries)
    p.add_argument("--codec", choices=("deflate", "none"), default=gen.codec.name.lower())
    p.set_defaults(func=_cmd_generate)

    p = sub.add_parser("serve", help="serve a directory over the range-read protocol")
    p.add_argument("--root", required=True)
    p.add_argument("--host", default="127.0.0.1")
    p.add_argument("--port", type=int, default=1094)
    p.add_argument("--bandwidth-cap", type=parse_bytes, default=None, help="bytes/s, e.g. 32Mi")
    p.set_defaults(func=_cmd_serve)

    p = sub.add_parser("reduce", help="run a skim/slim/derive job")
    p.add_argument("--job", required=True)
    _add_engine_options(p)
    p.add_argument("--out", default=None, help="override the job's output directory")
    p.set_defaults(func=_cmd_reduce)

    p = sub.add_parser("hist", help="fill a histogram over a job's skimmed inputs")
    p.add_argument("--job", required=True)
    _add_engine_options(p)
    p.add_argument("--spec", required=True, help="e.g. \"bin(40, 0, 200, 'max(Muon_pt)')\"")
    p.add_argument("--out", required=True, help="output CSV path")
    p.set_defaults(func=_cmd_hist)

    p = sub.add_parser("bench", help="run a scaling experiment and write reports")
    p.add_argument("--experiment", choices=tuple(bench.VARIANTS), required=True)
    p.add_argument("--config", default=None)
    p.add_argument("--out", required=True)
    p.set_defaults(func=_cmd_bench)

    p = sub.add_parser("concat", help="merge part files into one")
    p.add_argument("--out", required=True)
    p.add_argument("--manifest", default=None, help="manifest.jsonl listing inputs")
    p.add_argument("inputs", nargs="*")
    p.set_defaults(func=_cmd_concat)

    return parser


# Errors that bad input, a bad job or an unreachable server cause: reported
# as one line and exit status 1, without a traceback. TaskFailure is an
# EngineError.
_USER_ERRORS = (engine.EngineError, treefile.TreeFileError, histagg.HistError, XrdError, OSError)


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    try:
        return args.func(args)
    except _USER_ERRORS as exc:
        return _user_error(args.command, exc)


if __name__ == "__main__":
    raise SystemExit(main())
