"""Batch front-end: simulate, classify, evaluate, verify from the shell.

Subcommands:

* ``simulate``   walk paths as CSV (sparse redraw events, or dense with
                 ``--dense``)
* ``zigzag``     a zigzag path as interval CSV, or its trajectory on a
                 uniform grid with ``--grid``
* ``classify``   regime classification of a schedule, as JSON
* ``moments``    closed-form quantities (moments, bounds, drifts), as JSON
* ``verify``     statistical experiments, as JSON reports

Each verify experiment is one row of the ``_EXPERIMENTS`` table (flags,
default ``--samples``, ``verify`` operation), which builds its parser and
drives its dispatch.  Every operation returns a report dict of one shape,
built and judged by ``verify``, which ends with its sub-checks (``checks``)
and their verdict; the CLI writes it as is, and the exit code reads only
its ``passed``.

Artifacts are self-describing: CSV starts with a ``# config {...}`` comment
line and JSON embeds a ``config`` object, so every file names the exact run
that produced it.  Identical argv produce byte-identical output.  JSON is
strict: non-finite numbers are written as null.

Exit codes: 0 success; 1 a verify report's ``passed`` is false; 2 usage or
precondition error; 3 an unexpected internal error (a crash never reads as a
failed verdict).
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import itertools
import json
import math
import sys
import traceback

from . import analytics, oracle, verify, walk, zigzag
from .schedule import _integer, classify_regime, schedule_from_json


def _schedule_arg(text: str):
    """--schedule accepts inline JSON or @path-to-a-JSON-file.

    A bad schedule or an unreadable file is an ``ArgumentTypeError``, so
    argparse reports its own text (exit 2), not a generic "invalid value".
    """
    try:
        if text.startswith("@"):
            with open(text[1:], "r", encoding="utf-8") as fh:
                text = fh.read()
        return schedule_from_json(text)
    except (ValueError, OSError) as exc:
        raise argparse.ArgumentTypeError(str(exc)) from None


def _int_list(text: str) -> list:
    return [int(tok) for tok in text.split(",") if tok.strip()]


def _float_list(text: str) -> list:
    return [float(tok) for tok in text.split(",") if tok.strip()]


@contextlib.contextmanager
def _out_stream(path):
    if path in (None, "-"):
        yield sys.stdout
    else:
        with open(path, "w", encoding="utf-8", newline="") as fh:
            yield fh


def _emit_json(obj: dict, path) -> None:
    """Strict JSON: a non-finite number is written as null."""
    text = json.dumps(verify._builtin(obj), indent=2, allow_nan=False)
    with _out_stream(path) as fh:
        fh.write(text)
        fh.write("\n")


def _config_line(cfg: dict) -> str:
    return "# config " + json.dumps(cfg)


# ---------------------------------------------------------------------------
# subcommand handlers


def _cmd_simulate(args) -> int:
    _integer("samples", args.samples, 1)
    sched = args.schedule
    cfg = {"subcommand": "simulate", "d": args.d, "schedule": sched.to_json(),
           "n": args.n, "samples": args.samples, "seed": args.seed,
           "sampler": args.sampler, "dense": args.dense, "format": "csv"}
    rng = verify.stream_rng(args.seed, "simulate")
    paths = (walk._event_paths(args.d, sched, args.n, args.samples, rng)  # in groups
             if args.sampler == "events" else
             (walk.simulate(args.d, sched, args.n, rng) for _ in range(args.samples)))
    # drawn as written, so memory does not grow with --samples; the first
    # draw comes before any output, so a rejected argument writes nothing
    paths = itertools.chain([next(paths)], paths)
    with _out_stream(args.out) as fh:
        fh.write(_config_line(cfg) + "\n")
        if args.samples == 1:
            if args.dense:
                next(paths).dense_to_csv(fh)
            else:
                next(paths).to_csv(fh)
            return 0
        writer = csv.writer(fh, lineterminator="\n")
        if args.dense:
            writer.writerow(["path", "n"] + [f"x_{k + 1}" for k in range(args.d)])
            for pi, path in enumerate(paths):
                for t, row in enumerate(path.positions_dense()):
                    writer.writerow([pi, t] + [int(x) for x in row])
        else:
            writer.writerow(["path", "k", "tau_k", "axis", "sign"])
            for pi, path in enumerate(paths):
                for k, ev in enumerate(path.events, start=1):
                    writer.writerow([pi, k, ev.update_time,
                                     ev.new_direction.axis, ev.new_direction.sign])
    return 0


def _cmd_zigzag(args) -> int:
    if (args.b is None) == (args.a is None):
        raise ValueError("give exactly one of --b or --a")
    if args.grid is not None:
        _integer("grid", args.grid, 1)
    if not (math.isfinite(args.horizon) and args.horizon > 0):
        raise ValueError(f"--horizon must be a positive finite horizon T, got {args.horizon}")
    b = args.b if args.b is not None else zigzag.b_from_a(args.a, args.d)
    rng = verify.stream_rng(args.seed, "zigzag")
    ppp = zigzag.sample_ppp(b, args.epsilon, args.horizon, rng)
    path = zigzag.ZigzagPath(zigzag.label_intervals(ppp, args.d, rng))
    cfg = {"subcommand": "zigzag", "d": args.d, "b": b, "epsilon": ppp.epsilon,
           "horizon": args.horizon, "grid": args.grid, "seed": args.seed,
           "format": "csv"}
    with _out_stream(args.out) as fh:
        fh.write(_config_line(cfg) + "\n")
        if args.grid is None:
            path.to_csv(fh)
        else:
            span = args.horizon - ppp.epsilon
            times = [min(args.horizon, ppp.epsilon + span * i / args.grid)
                     for i in range(1, args.grid + 1)]
            path.trajectory_to_csv(times, fh)
    return 0


def _cmd_classify(args) -> int:
    cfg = {"subcommand": "classify", "d": args.d,
           "schedule": args.schedule.to_json()}
    result = classify_regime(args.schedule, args.d)
    _emit_json({"op": "classify", "config": cfg, **result.to_json()}, args.out)
    return 0


def _require(args, names: list, op: str) -> None:
    missing = [f"--{n.replace('_', '-')}" for n in names if getattr(args, n) is None]
    if missing:
        raise ValueError(f"--op {op} requires {', '.join(missing)}")


def _cmd_moments(args) -> int:
    op = args.op
    cfg = {"subcommand": "moments", "op": op}
    if op == "sgeom":
        _require(args, ["p", "m"], op)
        cfg.update(p=args.p, m=args.m)
        value = float(analytics.sgeom_moment(args.p, args.m))
    elif op == "fourth-moment":
        _require(args, ["p", "n"], op)
        cfg.update(p=args.p, n=args.n, mode=args.mode)
        value = float(analytics.fourth_moment_L(args.p, args.n, mode=args.mode))
    elif op == "ld-bound":
        _require(args, ["p", "a", "d"], op)
        cfg.update(p=args.p, a=args.a, d=args.d)
        value = analytics.ld_bound(args.p, args.a, args.d)
    elif op == "correlation":
        _require(args, ["schedule", "i", "j"], op)
        cfg.update(schedule=args.schedule.to_json(), i=args.i, j=args.j)
        value = analytics.correlation_e(args.schedule, args.i, args.j)
    elif op == "gambler":
        _require(args, ["p"], op)
        gap = math.inf if args.gap in (None, "inf") else int(args.gap)
        cfg.update(p=args.p, gap="inf" if gap == math.inf else gap)
        single, joint = analytics.gambler_pass_once(args.p, gap)
        value = {"single": single, "joint": joint}
    elif op == "lyapunov":
        _require(args, ["p", "a", "position"], op)
        pos = _float_list(args.position)
        cfg.update(p=args.p, a=args.a, position=pos, truncation_tail=args.tail)
        config = analytics.LyapunovConfig(args.p, args.a, truncation_tail=args.tail)
        value = analytics.lyapunov_drift(config, pos)
    elif op == "arith-count":
        _require(args, ["s", "s0", "big_m"], op)
        cfg.update(s=args.s, s0=args.s0, M=args.big_m)
        value = analytics.count_arith_progression(args.s, args.s0, args.big_m)
    elif op == "cosine-bound":
        _require(args, ["q", "a", "s"], op)
        q = _float_list(args.q)
        cfg.update(q=q, M=len(q), a=args.a, s=args.s)
        h, bound = analytics.cosine_sum_bound(q, len(q), args.a, args.s)
        value = {"h": h, "bound": bound}
    elif op == "b-from-a":
        _require(args, ["a", "d"], op)
        cfg.update(a=args.a, d=args.d)
        value = zigzag.b_from_a(args.a, args.d)
    else:  # pragma: no cover - argparse choices guard this
        raise ValueError(f"unknown op {op!r}")
    _emit_json({"op": op, "config": cfg, "value": value}, args.out)
    return 0


# name -> (required flags, optional flags, default --samples, operation): the
# flags are passed by name to the ``verify`` operation of that name
_EXPERIMENTS = {
    "tail": (("d", "p", "n", "a"), (), 100_000, "tail_report"),
    "covariance": (("schedule", "i", "j"), (), 1_000_000, "covariance_report"),
    "scaling": (("d", "p", "n"), (), 10_000, "scaling_limit_test"),
    "critical": (("d", "a", "n", "delta"), (), 100_000, "critical_limit_test"),
    "recurrence": (("d", "schedule", "horizons"), (), 10_000, "recurrence_report"),
    "volkov": (("p", "i", "j"), ("horizon",), 100_000, "volkov_report"),
    "moment4": (("p", "n"), (), 100_000, "moment4_report"),
}

# the type of every flag the table names, and the one help text among them
_VERIFY_TYPES = {"d": int, "p": float, "n": int, "a": float, "i": int, "j": int,
                 "delta": float, "schedule": _schedule_arg, "horizon": int,
                 "horizons": _int_list}
_VERIFY_HELP = {"horizons": "comma-separated, e.g. '1000,10000,100000'"}


def _cmd_verify(args) -> int:
    required, optional, _samples, op = _EXPERIMENTS[args.experiment]
    flags = {flag: getattr(args, flag) for flag in required + optional}
    # looked up at call time, so a rebound module attribute is the one that runs
    report = getattr(verify, op)(**flags, samples=args.samples, seed=args.seed)
    _emit_json(report, args.out)
    return 0 if report["passed"] else 1


# ---------------------------------------------------------------------------
# parser


def _build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="turnwalk",
        description="Direction-persistent lattice walks: simulation, "
                    "exact values, and statistical verification.")
    subs = parser.add_subparsers(dest="subcommand", required=True)

    sim = subs.add_parser("simulate", help="sample walk paths to CSV")
    sim.add_argument("--d", type=int, required=True)
    sim.add_argument("--schedule", type=_schedule_arg, required=True,
                     help="JSON like '{\"kind\":\"Constant\",\"p\":0.5}' or @file")
    sim.add_argument("--n", type=int, required=True)
    sim.add_argument("--samples", type=int, default=1)
    sim.add_argument("--seed", type=int, default=0)
    sim.add_argument("--sampler", choices=["step", "events"], default="step")
    sim.add_argument("--dense", action="store_true",
                     help="emit positions per step instead of redraw events")
    sim.add_argument("--out", default=None)
    sim.set_defaults(func=_cmd_simulate)

    zz = subs.add_parser("zigzag", help="sample a zigzag path to CSV")
    zz.add_argument("--d", type=int, required=True)
    zz.add_argument("--b", type=float, default=None)
    zz.add_argument("--a", type=float, default=None,
                    help="alternative to --b: the walk-side rate, b = (2d-1)a/(2d)")
    zz.add_argument("--epsilon", type=float, default=None)
    zz.add_argument("--horizon", type=float, default=1.0)
    zz.add_argument("--grid", type=int, default=None,
                    help="emit the trajectory on this many uniform times")
    zz.add_argument("--seed", type=int, default=0)
    zz.add_argument("--out", default=None)
    zz.set_defaults(func=_cmd_zigzag)

    cls = subs.add_parser("classify", help="regime classification as JSON")
    cls.add_argument("--schedule", type=_schedule_arg, required=True)
    cls.add_argument("--d", type=int, required=True)
    cls.add_argument("--out", default=None)
    cls.set_defaults(func=_cmd_classify)

    mom = subs.add_parser("moments", help="closed-form values as JSON")
    mom.add_argument("--op", required=True,
                     choices=["sgeom", "fourth-moment", "ld-bound", "correlation",
                              "gambler", "lyapunov", "arith-count", "cosine-bound",
                              "b-from-a"])
    mom.add_argument("--p", type=float, default=None)
    mom.add_argument("--m", type=int, default=None)
    mom.add_argument("--n", type=int, default=None)
    mom.add_argument("--mode", choices=["exact", "asymptotic"], default="exact")
    mom.add_argument("--a", type=float, default=None)
    mom.add_argument("--d", type=int, default=None)
    mom.add_argument("--i", type=int, default=None)
    mom.add_argument("--j", type=int, default=None)
    mom.add_argument("--schedule", type=_schedule_arg, default=None)
    mom.add_argument("--gap", default=None, help="integer or 'inf'")
    mom.add_argument("--position", default=None, help="comma-separated, e.g. '200,0'")
    mom.add_argument("--tail", type=float, default=1e-12)
    mom.add_argument("--s", type=float, default=None)
    mom.add_argument("--s0", type=float, default=None)
    mom.add_argument("--M", dest="big_m", type=int, default=None)
    mom.add_argument("--q", default=None, help="comma-separated distribution")
    mom.add_argument("--out", default=None)
    mom.set_defaults(func=_cmd_moments)

    ver = subs.add_parser("verify", help="statistical experiments as JSON")
    exps = ver.add_subparsers(dest="experiment", required=True)

    for name, (required, optional, samples, _op) in _EXPERIMENTS.items():
        exp = exps.add_parser(name)
        for flag in required + optional:
            exp.add_argument("--" + flag.replace("_", "-"), type=_VERIFY_TYPES[flag],
                             required=flag in required, help=_VERIFY_HELP.get(flag))
        exp.add_argument("--samples", type=int, default=samples)
        exp.add_argument("--seed", type=int, default=0)
        exp.add_argument("--out", default=None, help="output path (default stdout)")
    ver.set_defaults(func=_cmd_verify)
    return parser


def run(argv=None) -> int:
    parser = _build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code) if exc.code is not None else 0
    try:
        return args.func(args)
    except (ValueError, OSError, oracle.ResourceLimitError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 2
    except Exception as exc:  # a crash must not read as a failed verdict
        traceback.print_exc(file=sys.stderr)
        print(f"error: internal error: {type(exc).__name__}: {exc}", file=sys.stderr)
        return 3


def main() -> None:
    sys.exit(run())


if __name__ == "__main__":
    main()
