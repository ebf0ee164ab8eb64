"""One parsed index of the source that the lints `tests/test_no_*.py` read.

Each package module and each module under `tests/` is parsed once, when
this module is first imported.  `index(source)` indexes a snippet the same
way, so a lint can show on a few lines what its rule sees."""

import ast
import pathlib
from collections import namedtuple
from typing import Dict, List, NamedTuple, Optional, Set, Tuple

import randlab

# A call: its callee's bare name or attribute, the callee as written, the class of an
# attribute callee's receiver where it resolves, the qualified names of the enclosing
# definitions, outermost first, and the names and attributes its positional arguments read.
Call = namedtuple("Call", "line name text receiver scopes arg_names")
# An attribute read or written: the receiver's name where it is a bare name, the
# receiver's class where it resolves, and whether the attribute is called.
Attr = namedtuple("Attr", "line attr base receiver called")


class Module(NamedTuple):
    name: str
    defs: Dict[str, Tuple[int, str]]  # qualified name -> (line, "class", "method", "property" or "function")
    imports: List[Tuple[str, str, int]]  # (bound name, module, line); `__future__` binds none
    calls: List[Call]
    reads: List[Attr]        # attribute loads
    writes: List[Attr]       # attribute stores and deletes
    names: Set[str]          # bare names read
    annotated: Set[str]      # names read inside string annotations
    data: Set[str]           # its classes' `__slots__`, class-level fields and `self.x` stores
    exported: List[str]      # `__all__`
    asserts: List[int]       # lines of `assert` statements


def _name(node: ast.AST) -> Optional[str]:
    return getattr(node, "id", None) or getattr(node, "attr", None)


def _index(name: str, tree: ast.Module, classes: Set[str]) -> Module:
    m = Module(name, {}, [], [], [], [], set(), set(), set(), [], [])

    def class_of(node: ast.AST, owner: Optional[str], local: dict) -> Optional[str]:
        """The class of `node`'s value where it resolves: `self` or `cls` inside a class
        (its qualified name), a class name, a constructor call, or a local bound from one."""
        call = isinstance(node, ast.Call)
        node = node.func if call else node
        name = _name(node)
        if name == "cls" or name == "self" and not call:
            return owner
        return name if name in classes else None if call else local.get(getattr(node, "id", None))

    def locals_of(fn: ast.AST, owner: Optional[str]) -> dict:
        """Local name -> class, for each name bound only by constructor calls of one class."""
        made, bound = {}, {}  # id of an assigned name -> its constructor's class; local -> classes bound
        for n in ast.walk(fn):  # breadth first: an assignment comes before its target
            if isinstance(n, ast.Assign) and len(n.targets) == 1 and isinstance(n.value, ast.Call):
                made[id(n.targets[0])] = class_of(n.value, owner, {})
            elif isinstance(n, ast.arg) or isinstance(n, ast.Name) and not isinstance(n.ctx, ast.Load):
                bound.setdefault(getattr(n, "id", None) or n.arg, set()).add(made.get(id(n)))
        return {name: cls for name, (cls, *more) in bound.items() if cls and not more}

    def visit(node: ast.AST, scopes: tuple, owner: Optional[str], local: dict, called: bool) -> None:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            in_class = bool(scopes) and m.defs[scopes[-1]][1] == "class"
            scopes += (f"{scopes[-1]}.{node.name}" if scopes else node.name,)
            kind = ("class" if isinstance(node, ast.ClassDef) else "function" if not in_class
                    else "property" if {_name(d) for d in node.decorator_list} & {"property", "cached_property"}
                    else "method")
            m.defs[scopes[-1]] = (node.lineno, kind)
            if kind == "class":
                owner = scopes[-1]
                for item in node.body:
                    if isinstance(item, ast.AnnAssign):
                        m.data.add(_name(item.target))
                    elif isinstance(item, ast.Assign) and _name(item.targets[0]) == "__slots__":
                        m.data.update(ast.literal_eval(item.value))
            else:
                local = locals_of(node, owner)
        elif isinstance(node, (ast.Import, ast.ImportFrom)) and getattr(node, "module", None) != "__future__":
            m.imports.extend(((a.asname or a.name).split(".")[0], getattr(node, "module", a.name) or "",
                              node.lineno) for a in node.names)
        elif isinstance(node, ast.Call):
            f = node.func
            m.calls.append(Call(node.lineno, _name(f), ast.unparse(f),
                                class_of(f.value, owner, local) if isinstance(f, ast.Attribute) else None, scopes,
                                tuple(_name(n) for a in node.args for n in ast.walk(a) if _name(n))))
        elif isinstance(node, ast.Attribute):
            read = Attr(node.lineno, node.attr, getattr(node.value, "id", None),
                        class_of(node.value, owner, local), called)
            (m.reads if isinstance(node.ctx, ast.Load) else m.writes).append(read)
            if read.base == "self" and not isinstance(node.ctx, ast.Load):
                m.data.add(node.attr)
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            m.names.add(node.id)
        elif isinstance(node, ast.Assert):
            m.asserts.append(node.lineno)
        elif isinstance(node, ast.Assign) and not scopes and _name(node.targets[0]) == "__all__":
            m.exported.extend(ast.literal_eval(node.value))
        for annotation in filter(None, (getattr(node, "annotation", None), getattr(node, "returns", None))):
            for s in ast.walk(annotation):
                if isinstance(s, ast.Constant) and isinstance(s.value, str):
                    inner = ast.walk(ast.parse(s.value, mode="eval"))
                    m.annotated.update(n.id for n in inner if isinstance(n, ast.Name))
        for child in ast.iter_child_nodes(node):
            visit(child, scopes, owner, local, child is getattr(node, "func", None))

    visit(tree, (), None, {}, False)
    return m


def index(source: str, name: str = "<snippet>") -> Module:
    """`source` indexed as the package modules are, beside the package's classes."""
    tree = ast.parse(source, name)
    return _index(name, tree, CLASSES | {n.name for n in ast.walk(tree) if isinstance(n, ast.ClassDef)})


_PACKAGE_DIR = pathlib.Path(randlab.__file__).resolve().parent
_TREES = {path: ast.parse(path.read_text(), str(path)) for path in
          [*sorted(_PACKAGE_DIR.glob("*.py")), *sorted(pathlib.Path(__file__).parent.glob("*.py"))]}
CLASSES = {node.name for path, tree in _TREES.items() if path.parent == _PACKAGE_DIR
           for node in ast.walk(tree) if isinstance(node, ast.ClassDef)}
# file name -> its index; the modules under `tests/` that are not test modules are helpers.
PACKAGE = {p.name: _index(p.name, t, CLASSES) for p, t in _TREES.items() if p.parent == _PACKAGE_DIR}
TESTS = {p.name: _index(p.name, t, CLASSES) for p, t in _TREES.items() if p.parent != _PACKAGE_DIR}
HELPERS = {name: m for name, m in TESTS.items() if not name.startswith("test_")}
