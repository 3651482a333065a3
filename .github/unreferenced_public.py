"""List the public functions, classes, methods and properties under
src/exchnet that nothing in src/, tests/ or bench/ references; exit 1 if any.

Run from the repository root:  python3 .github/unreferenced_public.py

Functions and classes are matched by name.  Methods and properties are
matched by (class, name): a reference ``x.name`` counts for the class that
x is known to hold, read off light type hints (annotated parameters and
fields, ``self``/``cls``, the class itself, calls of a class or of a
function or method with an annotated return, and local assignments of
those).  A reference whose receiver is not known counts for every class
with that member, so a method is flagged only when every reference to its
name is known to be on another class.  Methods of a class with a base from
outside the package are not checked.
"""

import ast
import pathlib
import sys

TREES = {
    p: ast.parse(p.read_text())
    for d in ("src", "tests", "bench")
    for p in sorted(pathlib.Path(d).rglob("*.py"))
}
PKG = {p: t for p, t in TREES.items() if p.parts[:2] == ("src", "exchnet")}
CLASSES = {
    c.name: c for t in PKG.values() for c in t.body if isinstance(c, ast.ClassDef)
}
FUNCS = (ast.FunctionDef, ast.AsyncFunctionDef)


def named_class(node):
    """The package class an annotation names (C, "C", C | None), or None."""
    if isinstance(node, ast.Constant) and isinstance(node.value, str):
        node = ast.parse(node.value, mode="eval").body
    if isinstance(node, ast.BinOp):
        return named_class(node.left) or named_class(node.right)
    name = getattr(node, "id", None) or getattr(node, "attr", None)
    return name if name in CLASSES else None


RETURNS = {
    f.name: named_class(f.returns)
    for t in PKG.values() for f in t.body if isinstance(f, FUNCS)
}
# (class, member) -> the class of its value: method returns and annotated fields
MEMBERS = {}
for c in CLASSES.values():
    for node in c.body:
        if isinstance(node, FUNCS):
            MEMBERS[c.name, node.name] = named_class(node.returns)
        elif isinstance(node, ast.AnnAssign) and isinstance(node.target, ast.Name):
            MEMBERS[c.name, node.target.id] = named_class(node.annotation)


def class_of(expr, env):
    """The package class that ``expr`` is known to hold (or to be), or None."""
    if isinstance(expr, ast.Name):
        return expr.id if expr.id in CLASSES else env.get(expr.id)
    if isinstance(expr, ast.Call):
        f = expr.func
        if isinstance(f, ast.Name):
            return f.id if f.id in CLASSES else RETURNS.get(f.id)
        expr = f
    if isinstance(expr, ast.Attribute):
        return MEMBERS.get((class_of(expr.value, env), expr.attr))
    return None


keyed, loose, names = set(), set(), set()


def visit(node, env, cls):
    for child in ast.iter_child_nodes(node):
        if isinstance(child, ast.ClassDef):
            visit(child, {}, child.name)
            continue
        if isinstance(child, FUNCS):
            args = child.args.posonlyargs + child.args.args + child.args.kwonlyargs
            inner = dict(env)
            for i, a in enumerate(args):
                own = cls if i == 0 and a.arg in ("self", "cls") else None
                inner[a.arg] = named_class(a.annotation) or own
            visit(child, inner, None)
            continue
        target = getattr(child, "targets", [None])[0]
        if isinstance(child, ast.Assign) and isinstance(target, ast.Name):
            held = class_of(child.value, env)
            visit(child, env, cls)
            env[target.id] = held
            continue
        if isinstance(child, ast.Name) and isinstance(child.ctx, ast.Store):
            env[child.id] = None  # bound by a loop, a with or an unpacking
        if isinstance(child, ast.Attribute):
            owner = class_of(child.value, env)
            if (owner, child.attr) in MEMBERS:
                keyed.add((owner, child.attr))
            else:
                loose.add(child.attr)
        elif isinstance(child, ast.Name):
            names.add(child.id)
        elif isinstance(child, ast.ImportFrom):
            names.update(a.name for a in child.names)
        visit(child, env, cls)


for tree in TREES.values():
    visit(tree, {}, None)
found = []
for p, tree in PKG.items():
    for top in tree.body:
        if isinstance(top, (*FUNCS, ast.ClassDef)) and not top.name.startswith("_"):
            if top.name not in names | loose:
                found.append(f"{p}:{top.lineno}: {top.name}")
        # a class with a base from outside the package may have its methods
        # called by that base (argparse calls ``error``)
        outside = any(named_class(b) is None for b in getattr(top, "bases", []))
        if isinstance(top, ast.ClassDef) and not outside:
            for node in top.body:
                if isinstance(node, FUNCS) and not node.name.startswith("_"):
                    if (top.name, node.name) not in keyed and node.name not in loose:
                        found.append(f"{p}:{node.lineno}: {top.name}.{node.name}")
print("\n".join(found))
sys.exit(bool(found))
