"""Command line front end.

Every subcommand except `kg encode`/`kg decode` assembles a one-off
in-memory scenario and runs it through the same handlers the scenario
runner uses, so CLI output and scenario reports never drift apart.
`fireworks`, `tests convert`, `w2r` and `minpair` read their options off
`EXPERIMENT_KEYS`, and the kind the mode names gets each option given as a
key, so a missing required one is refused as a missing key (exit 2).
`kg` bypasses the reader and takes the library's depth and horizon defaults.
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
from .scenario import _CONVERSIONS, EXPERIMENT_KEYS, Experiment, Scenario, load_scenario, run_scenario


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


# Each experiment subcommand: its help line, mode -> the kind of the one
# experiment it runs (named after the mode), the keys it offers as options,
# in help order, with their help text, and the one default of its own the
# CLI keeps, --count's; the reader holds every other.
_EXPERIMENTS = {
    "fireworks": ("guess-with-cap construction",
                  {mode: f"fireworks_{mode}" for mode in ("run", "sweep", "trichotomy", "extract")},
                  {"k": None, "target_length": None, "stage_budget": None,
                   "cap_bounds": "comma-separated powers of two",
                   "caps": "explicit cap vector for mode=run",
                   "seed": "draw caps from this seed for mode=run", "trace": None}, {}),
    "tests": ("test-object conversions", {"convert": "convert_sweep"},
              dict.fromkeys(["direction", "seed", "count", "levels", "bound", "horizon"]),
              {"count": 10}),
    "w2r": ("layered coding into a seeded class", {"encode": "w2r", "hit": "w2r_hitting"},
            {"seed": None, "payloads": "comma-separated payloads (encode)",
             "positions": "dense-open offsets (hit)", "patterns": "dense-open patterns (hit)",
             "depth": None, "horizon": None}, {}),
    "minpair": ("selector analysis over functional pairs", {"analyze": "minpair_sweep"},
                dict.fromkeys(["seed", "count", "nat_max", "horizon"]), {"count": 5}),
}

# A key's kind -> how its option reads.
_OPTION_KINDS = {
    "int": {"type": int}, "nat": {"type": int}, "positive": {"type": int},
    "ints": {"type": _csv_ints}, "nats": {"type": _csv_ints}, "bit_list": {"type": _csv_strs},
    "direction": {"choices": list(_CONVERSIONS)}, "bool": {"action": "store_true"},
}


def _cmd_experiment(args) -> int:
    """The experiment the mode names, given each key of the subcommand's
    kinds that the user gave as an option; the reader holds the defaults
    and refuses the rest."""
    kinds = _EXPERIMENTS[args.command][1]
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
    keys = {key for kind in kinds.values() for key, *_ in EXPERIMENT_KEYS[kind]}
    params = {key: given[key] for key in sorted(keys) if given.get(key) is not None}
    return _run_inline("cli", objects, [Experiment(args.mode, kinds[args.mode], params)], args.out)


def _cmd_kg(args) -> int:
    # A depth or horizon left out takes the generator's default.
    sizes = {k: v for k, v in vars(args).items() if k in ("depth", "horizon") and v is not None}
    tree = random_pi01_tree(random.Random(args.seed), **sizes)
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


def _kg_options(p: argparse.ArgumentParser) -> None:
    p.add_argument("mode", choices=["encode", "decode"])
    p.add_argument("--seed", type=int, required=True)
    p.add_argument("--payload", type=BitString, help="bits to encode (mode=encode)")
    p.add_argument("--codeword", type=BitString, help="bits to decode (mode=decode)")
    p.add_argument("--stem", type=BitString, default="^")
    p.add_argument("--depth", type=int)
    p.add_argument("--horizon", type=int)
    p.set_defaults(func=_cmd_kg)


def _experiment(command: str):
    """The help line of an experiment subcommand and what adds its options:
    one per offered key, read as its kind reads, and required when every
    kind of the subcommand requires the key."""
    help_line, kinds, offered, defaults = _EXPERIMENTS[command]

    def add_options(p: argparse.ArgumentParser) -> None:
        if command == "tests":  # its one mode is a subcommand of its own
            p = p.add_subparsers(dest="tests_command", required=True).add_parser(
                "convert", help="seeded conversion sweep")
            p.set_defaults(mode="convert")
        else:
            p.add_argument("mode", choices=list(kinds))
        if command == "fireworks":
            p.add_argument("--adversary", action="append", required=True,
                           metavar="SPEC", help="events as STRINGS@STAGE;... e.g. 0@1;00@2")
        tables = [{entry[0]: entry for entry in EXPERIMENT_KEYS[kind]} for kind in kinds.values()]
        for key, help_text in offered.items():
            kind = next(table[key][1] for table in tables if key in table)
            default = defaults.get(key)
            required = default is None and all(len(table.get(key, ())) == 2 for table in tables)
            p.add_argument("--" + key.replace("_", "-"), help=help_text, default=default,
                           required=required, **_OPTION_KINDS[kind])
        p.add_argument("--out")
        p.set_defaults(func=_cmd_experiment)
    return help_line, add_options


# Each subcommand, in help order: its help line and what adds its options.
SUBCOMMANDS = {
    "run": ("run a scenario file", _run_options),
    "fireworks": _experiment("fireworks"),
    "tests": _experiment("tests"),
    "kg": ("codeword embedding into a seeded class", _kg_options),
    "w2r": _experiment("w2r"),
    "minpair": _experiment("minpair"),
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
    if args.command == "kg":  # the one command the reader does not check
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
