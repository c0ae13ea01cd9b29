"""Command line surface: one session file in, one command, one report out.

Usage: ``homcat COMMAND SESSION-FILE [ARGS...]``.  Verdict commands print
a small JSON report; constructive commands print a complete session
fragment that parses on its own, so outputs can be piped into files and
fed straight back in.  Exit codes: 0 for success or a true verdict, 1
for a well-formed false or "none" verdict, 2 for any input error or a
failed write of the output (a closed stdout too), 3 for an internal
fault (any exception that is not a HomcatError), reported in one line on
stderr; a closed stderr drops that line and keeps the exit code.
"""

from __future__ import annotations

import errno
import json
import os
import sys
from pathlib import Path
from typing import Callable, NoReturn, Sequence

from .chainmaps import find_homotopy, is_quasi_iso
from .complexes import cohomology, shift
from .cones import check_les_exact, cone_triangle, mapping_cone
from .errors import HomcatError, UnknownReferenceError, UsageError, quote
from .fields import _Frozen
from .roofs import Cospan, RoofEquivalenceWitness, compose_roofs, flip_cospan, lift_map_to_roof, verify_roof_equivalence
from .session import (
    HomotopyEntry,
    MapEntry,
    RoofEntry,
    SessionFile,
    emit_session,
    matrix_payload,
    parse_session,
)

__all__ = ["run_command", "CommandResult", "main", "main_and_exit"]

USAGE = """usage: homcat COMMAND SESSION-FILE [ARGS...]

commands:
  validate FILE                       parse and validate, report ok
  cohomology FILE OBJECT              degreewise cohomology dimensions and representatives
  shift FILE OBJECT N                 emit the complex shifted by N
  cone FILE MAP                       emit the mapping cone with its structural maps
  les FILE MAP                        exactness of the long sequence of the cone triangle
  homotopic FILE MAP MAP              find a homotopy witness between two parallel maps
  qis FILE MAP                        is the map a quasi-isomorphism
  flip FILE ALPHA BETA                flip the cospan (alpha, beta) into a span
  compose FILE ROOF ROOF              compose two roofs
  roof-equiv FILE ROOF ROOF --witness APEX3 DENOM3 NUMER3 UP DOWN
                                      verify a roof equivalence witness
  lift FILE MAP                       present a plain map as a roof

exit codes: 0 success or true, 1 well-formed false or none, 2 input error,
            3 internal error
"""


class CommandResult(_Frozen):
    _fields = ("output", "exit_code")

    def __init__(self, output: str, exit_code: int) -> None:
        self._store(output=output, exit_code=exit_code)


def _report(payload, verdict: bool = True) -> CommandResult:
    """A JSON report, exit 0 for a true verdict and 1 for a false one."""
    return CommandResult(json.dumps(payload, indent=2) + "\n", 0 if verdict else 1)


def _fragment(session: SessionFile, **tables) -> CommandResult:
    """A session fragment over the session's field, emitted whole; exit 0."""
    return CommandResult(emit_session(SessionFile(session.field, **tables)), 0)


def _need(args: Sequence[str], count: int, command: str, shape: str) -> None:
    if len(args) != count:
        raise UsageError(f"usage: homcat {command} SESSION-FILE {shape}".rstrip())


def _get(table, kind: str, name: str):
    """The entry ``name`` of a session table of ``kind`` (object, map, roof)."""
    if name not in table:
        raise UnknownReferenceError(f"unknown {kind} {quote(name)}")
    return table[name]


def _fresh(name: str, taken) -> str:
    while name in taken:
        name = name + "_"
    return name


def _cmd_validate(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 0, "validate", "")
    return _report({"command": "validate", "ok": True})


def _cmd_cohomology(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 1, "cohomology", "OBJECT")
    name = args[0]
    c = _get(session.objects, "object", name)
    table = {}
    for i in c.degrees():
        space = cohomology(c, i)
        entry = {"dim": space.dim}
        if space.dim > 0:
            entry["representatives"] = matrix_payload(
                space.incl, f"object {quote(name)} representatives at degree {i}"
            )
        table[str(i)] = entry
    return _report({"command": "cohomology", "object": name, "cohomology": table})


def _cmd_shift(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 2, "shift", "OBJECT N")
    c = _get(session.objects, "object", args[0])
    try:
        n = int(args[1])
    except ValueError:
        raise UsageError(f"shift amount must be an integer, got {quote(args[1])}") from None
    return _fragment(session, objects={"shifted": shift(c, n)})


def _cmd_cone(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 1, "cone", "MAP")
    name = args[0]
    entry = _get(session.maps, "map", name)
    mc = mapping_cone(entry.value)
    objects = {entry.source: entry.value.source, entry.target: entry.value.target}
    cone_name = _fresh("cone", objects)
    objects[cone_name] = mc.cone
    shift_name = _fresh("source_shift", objects)
    objects[shift_name] = mc.proj.target
    maps = {name: entry}
    incl_name = _fresh("incl", maps)
    maps[incl_name] = MapEntry(entry.target, cone_name, mc.incl)
    proj_name = _fresh("proj", maps)
    maps[proj_name] = MapEntry(cone_name, shift_name, mc.proj)
    return _fragment(session, objects=objects, maps=maps)


def _cmd_les(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 1, "les", "MAP")
    entry = _get(session.maps, "map", args[0])
    exact = check_les_exact(cone_triangle(entry.value))
    return _report({"command": "les", "map": args[0], "exact": exact}, exact)


def _cmd_homotopic(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 2, "homotopic", "MAP MAP")
    e1 = _get(session.maps, "map", args[0])
    e2 = _get(session.maps, "map", args[1])
    witness = find_homotopy(e1.value, e2.value)
    if witness is None:
        return _report({"command": "homotopic", "maps": [args[0], args[1]], "result": "none"}, False)
    objects = {e1.source: e1.value.source, e1.target: e1.value.target}
    return _fragment(session, objects=objects,
                     homotopies={"witness": HomotopyEntry(e1.source, e1.target, witness)})


def _cmd_qis(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 1, "qis", "MAP")
    entry = _get(session.maps, "map", args[0])
    verdict = is_quasi_iso(entry.value)
    return _report({"command": "qis", "map": args[0], "result": verdict}, verdict)


def _cmd_flip(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 2, "flip", "ALPHA BETA")
    alpha = _get(session.maps, "map", args[0])
    beta = _get(session.maps, "map", args[1])
    flip = flip_cospan(Cospan(alpha=alpha.value, beta=beta.value))
    objects = {
        alpha.source: alpha.value.source,
        beta.source: beta.value.source,
        alpha.target: alpha.value.target,
    }
    k_name = _fresh("K", objects)
    objects[k_name] = flip.k_complex
    maps = {
        "gamma2": MapEntry(k_name, alpha.source, flip.gamma2),
        "gamma1": MapEntry(k_name, beta.source, flip.gamma1),
    }
    return _fragment(session, objects=objects, maps=maps,
                     homotopies={"h": HomotopyEntry(k_name, alpha.target, flip.witness)})


def _cmd_compose(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 2, "compose", "ROOF ROOF")
    r1 = _get(session.roofs, "roof", args[0])
    r2 = _get(session.roofs, "roof", args[1])
    composite = compose_roofs(r1.value, r2.value)
    left_name = session.maps[r1.denom].target
    right_name = session.maps[r2.numer].target
    objects = {
        left_name: composite.denom.target,
        right_name: composite.numer.target,
    }
    apex_name = _fresh("apex", objects)
    objects[apex_name] = composite.apex
    maps = {
        "denom": MapEntry(apex_name, left_name, composite.denom),
        "numer": MapEntry(apex_name, right_name, composite.numer),
    }
    return _fragment(session, objects=objects, maps=maps,
                     roofs={"composite": RoofEntry("denom", "numer", composite)})


def _cmd_roof_equiv(session: SessionFile, args: Sequence[str]) -> CommandResult:
    if len(args) != 8 or args[2] != "--witness":
        raise UsageError(
            "usage: homcat roof-equiv SESSION-FILE ROOF ROOF --witness APEX3 DENOM3 NUMER3 UP DOWN"
        )
    r1 = _get(session.roofs, "roof", args[0])
    r2 = _get(session.roofs, "roof", args[1])
    witness = RoofEquivalenceWitness(
        apex3=_get(session.objects, "object", args[3]),
        denom3=_get(session.maps, "map", args[4]).value,
        numer3=_get(session.maps, "map", args[5]).value,
        up=_get(session.maps, "map", args[6]).value,
        down=_get(session.maps, "map", args[7]).value,
    )
    verdict = verify_roof_equivalence(r1.value, r2.value, witness)
    return _report({"command": "roof-equiv", "roofs": [args[0], args[1]], "result": verdict}, verdict)


def _cmd_lift(session: SessionFile, args: Sequence[str]) -> CommandResult:
    _need(args, 1, "lift", "MAP")
    entry = _get(session.maps, "map", args[0])
    roof = lift_map_to_roof(entry.value)
    objects = {entry.source: entry.value.source, entry.target: entry.value.target}
    maps = {
        "denom": MapEntry(entry.source, entry.source, roof.denom),
        "numer": MapEntry(entry.source, entry.target, roof.numer),
    }
    return _fragment(session, objects=objects, maps=maps, roofs={"lifted": RoofEntry("denom", "numer", roof)})


_COMMANDS: dict[str, Callable[[SessionFile, Sequence[str]], CommandResult]] = {
    "validate": _cmd_validate,
    "cohomology": _cmd_cohomology,
    "shift": _cmd_shift,
    "cone": _cmd_cone,
    "les": _cmd_les,
    "homotopic": _cmd_homotopic,
    "qis": _cmd_qis,
    "flip": _cmd_flip,
    "compose": _cmd_compose,
    "roof-equiv": _cmd_roof_equiv,
    "lift": _cmd_lift,
}


def run_command(session: SessionFile, command: str, args: Sequence[str]) -> CommandResult:
    """Execute one command against a parsed session."""
    handler = _COMMANDS.get(command)
    if handler is None:
        raise UsageError(f"unknown command {quote(command)}")
    return handler(session, list(args))


def main(argv: Sequence[str] | None = None) -> int:
    """Run one command line and return its exit code, with stdout flushed."""
    code, output = _dispatch(list(sys.argv[1:] if argv is None else argv))
    out = sys.stdout  # None when the process started with fd 1 closed
    try:
        if output:  # an unbuffered stdout on a full device refuses even ""
            if out is None:
                raise OSError(errno.EBADF, os.strerror(errno.EBADF))
            out.write(output)
        if out is not None:
            out.flush()
    except OSError as e:
        _warn(f"cannot write output: {e.strerror or e}\n")
        return 2
    return code


def _warn(text: str) -> None:
    """Write and flush a line to stderr, or nowhere when stderr is closed
    (None when the process started with fd 2 closed) or refuses the
    write: the exit code still tells the outcome."""
    if sys.stderr is not None:
        try:
            sys.stderr.write(text)
            sys.stderr.flush()
        except OSError:
            pass


def _dispatch(args: list[str]) -> tuple[int, str]:
    """The exit code and the stdout text of one command line; errors go to stderr."""
    if not args:
        _warn(USAGE)
        return 2, ""
    if args[0] in ("-h", "--help"):
        return 0, USAGE
    command = args[0]
    if command not in _COMMANDS:
        _warn(f"unknown command {quote(command)}\n{USAGE}")
        return 2, ""
    if len(args) < 2:
        _warn(f"missing session file\n{USAGE}")
        return 2, ""
    try:
        text = Path(args[1]).read_text(encoding="utf-8")
    except (OSError, UnicodeDecodeError, MemoryError) as e:
        # a MemoryError is a file larger than the memory the process may take
        reason = e.strerror if isinstance(e, OSError) and e.strerror else str(e) or "out of memory"
        _warn(f"cannot read session file {quote(args[1])}: {reason}\n")
        return 2, ""
    try:
        session = parse_session(text)
        result = run_command(session, command, args[2:])
    except HomcatError as e:
        _warn(f"{type(e).__name__}: {e}\n")
        return 2, ""
    except Exception as e:  # a fault of homcat itself, not of the input
        detail = " ".join(str(e).split())[:200]
        _warn(f"internal error: {type(e).__name__}: {detail}\n")
        return 3, ""
    return result.exit_code, result.output


def main_and_exit() -> NoReturn:
    """The ``homcat`` script and ``python -m homcat.cli``: run main, then end
    the process at once.  main leaves stdout flushed and flushes each line
    it writes to stderr, so the interpreter's teardown, which frees every
    object one by one, is skipped, as one command per process needs none
    of it."""
    os._exit(main())


if __name__ == "__main__":
    main_and_exit()
