"""Command line front end.

Every subcommand except `kg encode`/`kg decode` assembles a one-off
in-memory scenario and runs it through the same handlers the scenario
runner uses, so CLI output and scenario reports never drift apart.
`fireworks`, `tests convert`, `w2r` and `minpair` are one command: the
experiment kind the subcommand and mode name, given every option the user
gave for a key of the subcommand's `EXPERIMENT_KEYS`, for its kind to check.
Reports go to --out when given, otherwise to a temporary directory, and
are echoed to stdout either way, from the text the run wrote.

An invocation builds the parser of the one subcommand it names (see
`SUBCOMMANDS`); help, version and a missing or unknown command get all six.
"""

from __future__ import annotations

import argparse
import random
import sys
import tempfile
from typing import Dict, List, Optional, Sequence

from . import __version__
from .bitstring import BitString
from .errors import RandlabError, ScenarioError
from .coding import kg_decode, kg_encode
from .generators import random_pi01_tree
from .scenario import EXPERIMENT_KEYS, Experiment, Scenario, load_scenario, run_scenario


def _parse_adversary(spec: str) -> Dict[str, object]:
    """'0,01@1;00@2' -> events; optional '#H' suffix overrides the horizon."""
    body, hash_mark, tail = spec.partition("#")
    try:
        events = []
        for part in filter(None, body.split(";")):
            strings, stage = part.rsplit("@", 1)
            events.append([int(stage), _csv_strs(strings)])
        horizon = int(tail) if hash_mark else max((s for s, _ in events), default=0)
    except ValueError:
        raise ScenarioError(f"bad adversary {spec!r}, want STRINGS@STAGE;... "
                            "with integer stages and an optional integer #HORIZON")
    return {"events": events, "horizon": horizon}


def _csv_ints(text: str) -> List[int]:
    try:
        return [int(x) for x in text.split(",") if x]
    except ValueError:
        raise argparse.ArgumentTypeError(f"want comma-separated integers, got {text!r}")


def _csv_strs(text: str) -> List[str]:
    return [x for x in text.split(",") if x]


def _emit(result, out_given: bool) -> int:
    for path, text in result.written:
        sys.stdout.write(f"== {path.name} ==\n")
        sys.stdout.write(text)
    for fact in result.facts:
        status = "ok" if fact.ok else f"FAILED at {fact.failed_at}"
        sys.stdout.write(f"experiment {fact.name}: {status}\n")
    if out_given:
        sys.stdout.write(f"wrote {len(result.written)} file(s)\n")
    return 0 if result.ok else 1


def _run_inline(name: str, objects: Dict[str, Dict[str, object]],
                experiments: Sequence[Experiment], out: Optional[str]) -> int:
    scen = Scenario(name, objects, tuple(experiments))
    if out is None:
        with tempfile.TemporaryDirectory() as tmp:
            return _emit(run_scenario(scen, tmp), False)
    return _emit(run_scenario(scen, out), True)


def _cmd_run(args) -> int:
    scen = load_scenario(args.scenario)
    return _run_inline(scen.name, scen.objects, scen.experiments, args.out or None)


# (subcommand, mode) -> the kind of the one experiment it runs, named after the mode.
_EXPERIMENT_KINDS = {
    **{("fireworks", mode): f"fireworks_{mode}" for mode in ("run", "sweep", "trichotomy", "extract")},
    ("tests", "convert"): "convert_sweep", ("w2r", "encode"): "w2r",
    ("w2r", "hit"): "w2r_hitting", ("minpair", "analyze"): "minpair_sweep",
}


def _cmd_experiment(args) -> int:
    """The experiment given each key of the subcommand's kinds that the user
    gave as an option; the reader holds the defaults and refuses the rest."""
    kind = _EXPERIMENT_KINDS[args.command, args.mode]
    given = dict(vars(args))
    objects = {}
    if args.command == "fireworks":
        objects["enumerators"] = {f"w{i}": _parse_adversary(spec)
                                  for i, spec in enumerate(args.adversary)}
        # An empty --caps or --cap-bounds counts as not given; --caps wins over --seed.
        given.update(adversaries=list(objects["enumerators"]), caps=args.caps or None,
                     cap_bounds=args.cap_bounds or None)
        if given["caps"]:
            given["seed"] = None
        elif args.mode == "run" and args.seed is None:
            raise ScenarioError("fireworks run needs --caps or --seed")
    keys = {key for (command, _), read in _EXPERIMENT_KINDS.items() if command == args.command
            for key, *_ in EXPERIMENT_KEYS[read]}
    params = {key: given[key] for key in sorted(keys) if given.get(key) is not None}
    return _run_inline("cli", objects, [Experiment(args.mode, kind, params)], args.out)


def _cmd_kg(args) -> int:
    rng = random.Random(args.seed)
    tree = random_pi01_tree(rng, depth=args.depth, horizon=args.horizon)
    if args.mode == "encode":
        code = kg_encode(args.payload, args.stem, tree)
        sys.stdout.write(f"codeword {code}\n")
        sys.stdout.write(f"viable {'yes' if tree.viable(code, tree.horizon) else 'no'}\n")
        return 0
    payload = kg_decode(args.codeword, args.stem, tree, tree.horizon)
    if payload is None:
        sys.stdout.write("decode failed\n")
        return 1
    sys.stdout.write(f"payload {payload}\n")
    return 0


def _run_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("scenario")
    p.add_argument("--out", help="directory for report files")
    p.set_defaults(func=_cmd_run)


def _fireworks_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=["run", "sweep", "trichotomy", "extract"])
    p.add_argument("--adversary", action="append", required=True,
                   metavar="SPEC", help="events as STRINGS@STAGE;... e.g. 0@1;00@2")
    p.add_argument("--k", type=int, required=True)
    p.add_argument("--target-length", type=int, required=True)
    p.add_argument("--stage-budget", type=int, required=True)
    p.add_argument("--cap-bounds", type=_csv_ints, help="comma-separated powers of two")
    p.add_argument("--caps", type=_csv_ints, help="explicit cap vector for mode=run")
    p.add_argument("--seed", type=int, help="draw caps from this seed for mode=run")
    p.add_argument("--trace", action="store_true", default=None)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)


def _tests_options(p: argparse.ArgumentParser) -> None:
    t_sub = p.add_subparsers(dest="tests_command", required=True)
    p_conv = t_sub.add_parser("convert", help="seeded conversion sweep")
    p_conv.add_argument("--direction", choices=["d2u", "u2d"], required=True)
    p_conv.add_argument("--seed", type=int, required=True)
    p_conv.add_argument("--count", type=int, default=10)
    p_conv.add_argument("--levels", type=int)
    p_conv.add_argument("--bound", type=int)
    p_conv.add_argument("--horizon", type=int)
    p_conv.add_argument("--out")
    p_conv.set_defaults(func=_cmd_experiment, mode="convert")


def _kg_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=["encode", "decode"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--payload", type=BitString, help="bits to encode (mode=encode)")
    p.add_argument("--codeword", type=BitString, help="bits to decode (mode=decode)")
    p.add_argument("--stem", type=BitString, default="^")
    p.add_argument("--depth", type=int, default=24)
    p.add_argument("--horizon", type=int, default=8)
    p.set_defaults(func=_cmd_kg)


def _w2r_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=["encode", "hit"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--payloads", type=_csv_strs, help="comma-separated payloads (encode)")
    p.add_argument("--positions", type=_csv_ints, help="dense-open offsets (hit)")
    p.add_argument("--patterns", type=_csv_strs, help="dense-open patterns (hit)")
    p.add_argument("--depth", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)


def _minpair_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=["analyze"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--count", type=int, default=5)
    p.add_argument("--nat-max", type=int)
    p.add_argument("--horizon", type=int)
    p.add_argument("--out")
    p.set_defaults(func=_cmd_experiment)


# Each subcommand, in help order: its help line and what adds its options.
SUBCOMMANDS = {
    "run": ("run a scenario file", _run_options),
    "fireworks": ("guess-with-cap construction", _fireworks_options),
    "tests": ("test-object conversions", _tests_options),
    "kg": ("codeword embedding into a seeded class", _kg_options),
    "w2r": ("layered coding into a seeded class", _w2r_options),
    "minpair": ("selector analysis over functional pairs", _minpair_options),
}


def build_parser(argv: Sequence[str] = ()) -> argparse.ArgumentParser:
    """The parser for `argv`: with only the subcommand `argv[0]` names, or
    with all of them when it names none (help, version, no or an unknown
    command).  One subcommand's parser still shows every name in its usage."""
    parser = argparse.ArgumentParser(prog="randlab",
                                     description="finite-stage randomness laboratory")
    parser.add_argument("--version", action="version", version=f"randlab {__version__}")
    if argv and argv[0] in SUBCOMMANDS:
        names = [argv[0]]
        sub = parser.add_subparsers(dest="command", required=True,
                                    metavar="{" + ",".join(SUBCOMMANDS) + "}")
    else:
        names = list(SUBCOMMANDS)
        sub = parser.add_subparsers(dest="command", required=True)
    for name in names:
        help_text, add_options = SUBCOMMANDS[name]
        add_options(sub.add_parser(name, help=help_text))
    return parser


def main(argv: Optional[Sequence[str]] = None) -> int:
    argv = sys.argv[1:] if argv is None else list(argv)
    parser = build_parser(argv)
    args = parser.parse_args(argv)
    if getattr(args, "mode", None) == "hit":
        if not (args.positions and args.patterns):
            parser.error("w2r hit needs --positions and --patterns")
    if getattr(args, "mode", None) == "encode" and args.command == "w2r":
        if not args.payloads:
            parser.error("w2r encode needs --payloads")
    if args.command == "kg":
        if args.mode == "encode" and args.payload is None:
            parser.error("kg encode needs --payload")
        if args.mode == "decode" and args.codeword is None:
            parser.error("kg decode needs --codeword")
    try:
        return args.func(args)
    except ScenarioError as e:
        sys.stderr.write(f"error: {e}\n")
        return 2
    except RandlabError as e:
        sys.stderr.write(f"error: {e}\n")
        return 3


if __name__ == "__main__":
    sys.exit(main())
