"""Members in generated code: the one member rule and call writer of the
direct run and the slow solve.

Each solve lists its members in a table (:data:`DIRECT`, :data:`SLOW`,
and :data:`BOUND` for the window, of :class:`Slot`), and one rule, the
same in all, decides per run how its code evaluates each (:func:`members`):

* a plain ``def`` whose body is assignments and one ``return``
  (:func:`inline_form`) is written in: its own expressions, read from its
  source with :mod:`ast`, on the same floats in the same order, so the
  code is bit for bit the code that calls it, and a member that raises
  raises the same exception at the same evaluation;
* a member made by :func:`averbound.examples.constant` is bound once per
  run, as the parts of its value the evaluation reads, read as from the
  call's value;
* anything else is called: a lambda, a ``functools.wraps`` or ``*args``
  wrapper, a default argument, a body with an ``if`` or a loop, a
  decorated ``def``, a function made by ``exec``, whose source cannot be
  found, and a constant of another shape, which fails as its call does.

A member given as None is absent (:data:`ABSENT`) and never evaluated:
which are absent is the form of the code.  :func:`outside` names the
arguments of the generated ``make`` that members read, and :class:`Calls`
writes each call of an evaluation.  In a body written in, an assignment may
unpack into plain names, and one that unpacks a parameter whose components
the caller names (``j1, j2 = j``) binds those names, with no list in
between; a returned tuple or list display, nested ones included, binds one
name per part the caller reads, and a returned ``np.array(<display>)`` read
as a list (``.tolist()``) binds ``float(item)`` per item, which is what
``.tolist()`` of the float64 array of one point gives.  The body's names
take the member's prefix, and the names it reads from its closure, module
or built-ins are arguments of ``make``, so the source depends on the
members' code alone; a helper the body calls (vdp's ``_a_radicand``) is one
of them, and is called.
"""
from __future__ import annotations

import ast
import functools
import inspect
import re
import textwrap
import types
from typing import Callable, NamedTuple, Optional, Tuple

import numpy as np

from .examples import constant

__all__ = ["ABSENT", "BOUND", "CONSTANT", "DIRECT", "SLOW", "Calls",
           "Member", "Slot", "inline_form", "members", "outside", "source_of",
           "written_in"]

# Expressions with a scope of their own, or that suspend or bind a name:
# a body with one is called, not written in.
_OWN_SCOPE = (ast.Lambda, ast.ListComp, ast.SetComp, ast.DictComp,
              ast.GeneratorExp, ast.Yield, ast.YieldFrom, ast.Await,
              ast.NamedExpr)
# Names that read or run code in the caller's frame.
_FRAME_NAMES = frozenset({"locals", "vars", "dir", "eval", "exec", "globals",
                          "super", "__class__"})
# The key of a member made by examples.constant.
CONSTANT = "constant"
# The key, falsy as a called member's (None), of a member given as None.
ABSENT = False
_CONSTANT_CODE = constant(0.0).__code__


class _Body(NamedTuple):
    """A function as the generated code writes it in: its parameters, its
    assignments ``(targets, value)`` in order, each target a name or a
    tuple of names it unpacks into, its return value and the names it
    reads from its closure, globals or built-ins."""

    params: Tuple[str, ...]
    assigns: Tuple[Tuple[tuple, ast.expr], ...]
    value: ast.expr
    free: Tuple[str, ...]


def _target(node):
    """The name, or the tuple of names, an assignment target binds; None
    for any other target."""
    if isinstance(node, ast.Name):
        return node.id
    if (isinstance(node, (ast.Tuple, ast.List)) and node.elts
            and all(isinstance(e, ast.Name) for e in node.elts)):
        return tuple(e.id for e in node.elts)
    return None


def _names(target):
    return (target,) if isinstance(target, str) else target


@functools.lru_cache(maxsize=None)
def inline_form(code, source: str) -> Optional[_Body]:
    """The body of the function of ``code`` with the source ``source``
    when generated code can write it in, else None.

    That is an undecorated ``def`` with positional parameters and no
    defaults whose body is assignments to plain names, or unpackings into
    them, each name read only after it is bound, and then one ``return``,
    with no lambda, comprehension, ``yield``, ``await``, ``:=`` or
    frame-reading built-in in it.  Compiled where its closure names are
    bound, ``source`` must give ``code``'s constants, names and variables,
    so a file edited since the import is seldom read for the code that
    runs.  (Its bytecode is not compared: a method call on a name the
    module imports compiles differently outside that module.)
    """
    source = textwrap.dedent(source)
    try:
        tree = ast.parse(source)
    except SyntaxError:
        return None
    fdef = tree.body[0] if len(tree.body) == 1 else None
    if (not isinstance(fdef, ast.FunctionDef) or fdef.decorator_list
            or fdef.name != code.co_name):
        return None
    args = fdef.args
    if args.vararg or args.kwarg or args.kwonlyargs or args.defaults:
        return None
    params = tuple(a.arg for a in args.posonlyargs + args.args)
    body = fdef.body
    first = body[0]
    if (isinstance(first, ast.Expr) and isinstance(first.value, ast.Constant)
            and isinstance(first.value.value, str)):
        body = body[1:]                                   # the docstring
    if (not body or not isinstance(body[-1], ast.Return)
            or body[-1].value is None):
        return None
    assigns, result = body[:-1], body[-1].value
    if not all(isinstance(s, ast.Assign)
               and all(_target(t) is not None for t in s.targets)
               for s in assigns):
        return None
    targets = [tuple(_target(t) for t in s.targets) for s in assigns]
    local = {name for ts in targets for t in ts for name in _names(t)}
    if local & set(params):
        return None
    bound, free = set(), set()
    for value, ts in [*zip((s.value for s in assigns), targets),
                      (result, ())]:
        for node in ast.walk(value):
            if isinstance(node, _OWN_SCOPE):
                return None
            if isinstance(node, ast.Name):
                if node.id in local and node.id not in bound:
                    return None
                if node.id not in local and node.id not in params:
                    free.add(node.id)
        bound.update(name for t in ts for name in _names(t))
    if free & _FRAME_NAMES:
        return None
    # the def's tree, compiled inside a function that binds its closure
    # names, so that they compile as closure reads
    outer = ast.parse("def _outer():\n    " + (
        f"{' = '.join(code.co_freevars)} = None" if code.co_freevars
        else "pass"))
    outer.body[0].body.append(fdef)
    [own] = (c for c in compile(outer, code.co_filename, "exec",
                                dont_inherit=True).co_consts
             if isinstance(c, types.CodeType))
    [inner] = (c for c in own.co_consts if isinstance(c, types.CodeType))
    if any(getattr(inner, k) != getattr(code, k)
           for k in ("co_consts", "co_names", "co_varnames", "co_freevars")):
        return None
    return _Body(params, tuple(zip(targets, (s.value for s in assigns))),
                 result, tuple(sorted(free)))


# The source of each member's code object that written_in has read, or
# None where it has none.
_SOURCES: dict = {}


def source_of(fn) -> Optional[str]:
    """The source of the plain function ``fn``, read once per code object,
    or None when it has none.  A module file edited after the import is not
    read again for code already seen."""
    code = fn.__code__
    try:
        return _SOURCES[code]
    except KeyError:
        pass
    try:
        # on the function, which names its module: on its code, inspect
        # looks the module up among all that are loaded
        source = inspect.getsource(fn)
    except (OSError, TypeError):
        source = None
    _SOURCES[code] = source
    return source


class Member(NamedTuple):
    """A member that generated code writes in, or binds as a constant.

    ``key`` is what the generated source depends on: :data:`CONSTANT` for
    a member made by ``examples.constant``, else ``(code, source,
    array)``, with ``array`` true when the body returns
    ``np.array(<display>)`` with ``np`` the numpy module.  ``values`` is
    the constant's value, or the values of the names the body reads from
    outside, by name."""

    key: object
    values: object


def _is_numpy_array(value, outside) -> bool:
    """Whether ``value`` is ``<name>.array(<display>)`` with ``<name>``
    the numpy module among the ``outside`` values."""
    return (isinstance(value, ast.Call) and not value.keywords
            and len(value.args) == 1
            and isinstance(value.args[0], (ast.List, ast.Tuple))
            and isinstance(value.func, ast.Attribute)
            and value.func.attr == "array"
            and isinstance(value.func.value, ast.Name)
            and outside.get(value.func.value.id) is np)


def written_in(fn, nargs: int) -> Optional[Member]:
    """``fn`` as generated code writes it in for a call with ``nargs``
    arguments, or None when the code calls it.

    A member made by ``examples.constant`` gives the key
    :data:`CONSTANT` and its value, which :func:`members` binds once per
    run if the evaluation can read it so.  A plain function is written in
    when :func:`inline_form` accepts its body and every name the body
    reads from its closure, globals or built-ins is bound.  A lambda, a
    ``functools.wraps`` wrapper and any other callable that is not a plain
    function are called."""
    if type(fn) is not types.FunctionType or hasattr(fn, "__wrapped__"):
        return None
    code = fn.__code__
    if code is _CONSTANT_CODE:
        return Member(CONSTANT, fn.__closure__[0].cell_contents)
    source = source_of(fn)
    if source is None:
        return None
    body = inline_form(code, source)
    if body is None or len(body.params) != nargs:
        return None
    cells = dict(zip(code.co_freevars, fn.__closure__ or ()))
    values = {}
    for name in body.free:
        if name in cells:
            try:
                values[name] = cells[name].cell_contents
            except ValueError:                            # an empty cell
                return None
        elif name in fn.__globals__:
            values[name] = fn.__globals__[name]
        elif name in fn.__builtins__:
            values[name] = fn.__builtins__[name]
        else:
            return None
    array = _is_numpy_array(body.value, values)
    return Member((code, source, array), values)


class _Bind:
    """One call of a written-in body: a parameter read as ``p[k]`` becomes
    the k-th of its component names, any other read of it the whole
    argument, a local that unpacks a parameter into its components that
    component, and every other name takes the member's prefix.  ``used``
    collects the component and whole-argument names written."""

    def __init__(self, params, args, prefix, alias, used):
        # parameter -> (components, whole)
        self.args = dict(zip(params, args))
        self.prefix = prefix
        self.alias = alias
        self.used = used

    def mark(self, expr: str):
        self.used.add(expr)
        return ast.parse(expr, mode="eval").body

    def __call__(self, node):
        """A copy of the tree ``node`` of a cached body with its names
        bound; the values in its nodes are shared."""
        if isinstance(node, list):
            return [self(item) for item in node]
        if isinstance(node, ast.Name):
            if node.id in self.args:
                return self.mark(self.args[node.id][1])
            if node.id in self.alias:
                return self.mark(self.alias[node.id])
            return ast.Name(self.prefix + node.id, node.ctx)
        if isinstance(node, ast.Subscript):
            name, index = node.value, node.slice
            if (isinstance(name, ast.Name) and name.id in self.args
                    and isinstance(index, ast.Constant)
                    and type(index.value) is int
                    and 0 <= index.value < len(self.args[name.id][0])):
                return self.mark(self.args[name.id][0][index.value])
        if not isinstance(node, ast.AST):
            return node
        return type(node)(**{field: self(value)
                             for field, value in ast.iter_fields(node)})


def _write_call(key, prefix: str, args, used: set):
    """One call of the written-in member ``key`` with its names prefixed by
    ``prefix``: the lines of its assignments, its return value (a node of
    the body) and its writer, ``writer(node) -> source``, which writes any
    node of the body for this call.

    ``args`` holds one ``(components, whole)`` pair per parameter: the
    names of its components, which ``p[k]`` reads, and the expression of
    the whole argument.  ``used`` collects the component and whole names
    the written code reads.  An assignment that unpacks a parameter into
    as many names as it has components, each bound nowhere else in the
    body, binds no line: the names read the components.
    """
    body = inline_form(*key[:2])
    args = dict(zip(body.params, args))
    bound = [name for targets, _ in body.assigns for t in targets
             for name in _names(t)]
    alias, assigns = {}, []
    for targets, value in body.assigns:
        if (len(targets) == 1 and isinstance(targets[0], tuple)
                and isinstance(value, ast.Name) and value.id in args
                and len(targets[0]) == len(args[value.id][0])
                and all(bound.count(name) == 1 for name in targets[0])):
            alias.update(zip(targets[0], args[value.id][0]))
        else:
            assigns.append((targets, value))
    bind = _Bind(body.params, list(args.values()), prefix, alias, used)

    def writer(node):
        return ast.unparse(bind(node))
    lines = [" = ".join([*(prefix + t if isinstance(t, str)
                           else "[" + ", ".join(prefix + n for n in t) + "]"
                           for t in targets), writer(value)])
             for targets, value in assigns]
    return lines, body.value, writer


def _items(value, n: int):
    """The n items of ``value`` when it is a list or tuple display of n
    items, none of them starred, else None."""
    if (isinstance(value, (ast.List, ast.Tuple)) and len(value.elts) == n
            and not any(isinstance(e, ast.Starred) for e in value.elts)):
        return value.elts
    return None


def _read(source: str, pattern, name: str):
    """Lines that read the parts ``pattern`` names of the value of
    ``source``, and their expressions, nested as ``pattern`` is.

    A pattern is None for the value itself, a list of patterns for items
    read by index, ``v[k]``, and a tuple of patterns for items unpacked,
    which raises ``ValueError`` for a value of another length: one
    unpacking, ``[name_0, [name_1_0, name_1_1]] = v``, nested as the tuple
    patterns in it are."""
    if pattern is None:
        return [], source
    if isinstance(pattern, list):
        lines, parts = [], []
        for k, sub in enumerate(pattern):
            sub_lines, part = _read(f"{source}[{k}]", sub, f"{name}_{k}")
            lines += sub_lines
            parts.append(part)
        return lines, parts

    later = []

    def target(sub, sub_name):
        """The target of ``sub`` in the unpacking, and its parts."""
        if isinstance(sub, tuple):
            pairs = [target(s, f"{sub_name}_{k}") for k, s in enumerate(sub)]
            return ("[" + ", ".join(t for t, _ in pairs) + "]",
                    [part for _, part in pairs])
        sub_lines, part = _read(sub_name, sub, sub_name)
        later.extend(sub_lines)
        return sub_name, part
    targets, parts = target(pattern, name)
    return [f"{targets} = {source}", *later], parts


def _bind_value(value, writer, pattern, name: str):
    """Lines that bind the parts ``pattern`` reads (:func:`_read`) of the
    value of the written-in expression ``value``, and their expressions.

    A display with one item per part binds each item read as a whole to
    ``name_<k>`` (a constant is read as itself), nested displays included;
    any other value is bound to ``name`` and read as :func:`_read` reads
    it, so a value of the wrong shape fails as the call's value does."""
    parts = _items(value, len(pattern)) if pattern is not None else None
    if parts is not None:
        lines, out = [], []
        for k, (item, sub) in enumerate(zip(parts, pattern)):
            sub_lines, part = _bind_value(item, writer, sub, f"{name}_{k}")
            lines += sub_lines
            out.append(part)
        return lines, out
    source = writer(value)
    if pattern is None and isinstance(value, ast.Constant):
        return [], source
    read_lines, parts = _read(name, pattern, name)
    return [f"{name} = {source}", *read_lines], parts


def _array_items(value, pattern):
    """The items of the nested display ``value`` at the leaves of the
    tuple ``pattern``, nested as it is, when its shape is the pattern's,
    else None."""
    if pattern is None:
        return value
    parts = _items(value, len(pattern))
    if parts is None:
        return None
    out = [_array_items(item, sub) for item, sub in zip(parts, pattern)]
    return None if any(part is None for part in out) else out


def _bind_array(key, value, writer, pattern, name: str):
    """Lines that bind the parts the tuple ``pattern`` unpacks of the list
    ``.tolist()`` makes of the written-in value ``value``, and their
    expressions; and the lines of the unpacking, which the caller places.

    When the member returns ``np.array`` of a display of the pattern's
    shape (``key``'s ``array``), each item is bound, in order, as
    ``float(item)`` to ``name_<k>...``, and nothing is left to unpack.
    Any other value is bound as ``name = <value>.tolist()``."""
    nested = _array_items(value.args[0], pattern) if key[2] else None
    if nested is None:
        unpack, parts = _read(name, pattern, name)
        return [f"{name} = ({writer(value)}).tolist()"], parts, unpack

    lines = []

    def leaves(node, sub, leaf):
        if sub is None:
            lines.append(f"{leaf} = float({writer(node)})")
            return leaf
        return [leaves(item, s, f"{leaf}_{k}")
                for k, (item, s) in enumerate(zip(node, sub))]
    return lines, leaves(nested, pattern, name), []


# The lines of each written-in call as _write() last wrote them, on
# placeholder names for its arguments, by member, prefix, number of
# components of each argument, pattern, name and form.
_TEMPLATES: dict = {}
_PLACEHOLDER = re.compile(r"\b__p(\d+)(?:_(\d+))?__\b")


def _write(key, prefix: str, args, used: set, name: str, pattern=None,
           array=False):
    """Lines that evaluate one call of the written-in member ``key`` on
    ``args`` (:func:`_write_call`) and bind the parts ``pattern`` reads of
    its value to names that start with ``name`` (:func:`_bind_value`), the
    parts' expressions and the lines of the unpacking: with ``array``, of
    the parts of its value as a list (:func:`_bind_array`), else none.

    The lines are written once per member, prefix, number of components
    of each argument, pattern, name and form, on placeholder names
    (``__p<k>__`` for the k-th argument, ``__p<k>_<i>__`` for its i-th
    component), which no name of a body or of its caller takes; each call
    puts its arguments' names in, a whole argument that is no name in
    parentheses."""
    shape = tuple(len(components) for components, _ in args)
    cache_key = (key, prefix, shape, repr(pattern), name, array)
    if cache_key not in _TEMPLATES:
        holders = [([f"__p{k}_{i}__" for i in range(n)], f"__p{k}__")
                   for k, n in enumerate(shape)]
        held = set()
        lines, value, writer = _write_call(key, prefix, holders, held)
        if array:
            more, parts, unpack = _bind_array(key, value, writer, pattern,
                                             name)
        else:
            (more, parts), unpack = _bind_value(value, writer, pattern,
                                               name), []
        _TEMPLATES[cache_key] = (lines + more, parts, unpack, held)
    lines, parts, unpack, held = _TEMPLATES[cache_key]

    def actual(match, bare=False):
        k, i = match.groups()
        components, whole = args[int(k)]
        if i is not None:
            return components[int(i)]
        return whole if bare or whole.isidentifier() else f"({whole})"

    def put(text):
        if isinstance(text, list):
            return [put(part) for part in text]
        return _PLACEHOLDER.sub(actual, text)
    used.update(actual(match, True) for match in map(_PLACEHOLDER.fullmatch,
                                                      held) if match)
    return put(lines), put(parts), put(unpack)


class Slot(NamedTuple):
    """One member of a solve's member table: its ``name`` on the system or
    bundle, the name of ``make``'s argument that holds it and that the
    code calls (``call``), its number of arguments, the ``prefix`` of its
    written-in names and constant parts, and ``read(d)``, how the step
    reads its value for d actions: a pattern of :func:`_read`, applied to
    ``.tolist()`` of the value when ``array`` is set."""

    name: str
    call: str
    nargs: int
    prefix: str
    read: Callable[[int], object]
    array: bool = False


def _whole(d):
    return None


def _listed(d):
    return [None] * d


# fbar's d items are read by index in both solves.
_FBAR = Slot("fbar", "fbar", 1, "_fb_", _listed)
# The members of the direct run, in the order its right-hand side
# evaluates them (f, fbar, omega, g), then in_domain.
DIRECT = (Slot("f", "f_sys", 2, "_f_", _listed), _FBAR,
          Slot("omega", "omega", 1, "_om_", _whole),
          Slot("g", "g_sys", 2, "_g_", _whole),
          Slot("in_domain", "in_domain", 1, "_dom_", _whole))
# The members of the slow solve, in the order of the arguments of its make:
# dfbar and pbar are read as lists of one point's shape, the majorants whole
# and each part of the gradients' tuples by index.
SLOW = (_FBAR,
        Slot("dfbar", "dfbar", 1, "_dfb_", lambda d: ((None,) * d,) * d, True),
        Slot("pbar", "pbar", 1, "_pb_", lambda d: (None,) * d, True),
        Slot("a_hat", "a_hat", 4, "_ah_", _whole),
        Slot("b_hat", "b_hat", 2, "_bh_", _whole),
        Slot("c_hat", "c_hat", 2, "_ch_", _whole),
        Slot("d_hat", "d_hat", 2, "_dh_", _whole),
        Slot("e_hat", "e_hat", 2, "_eh_", _whole),
        Slot("a_grad", "a_grad", 4, "_ag_",
             lambda d: ([None] * d, [[None] * d] * d, [None] * d, None)),
        Slot("b_grad", "b_grad", 2, "_bg_", lambda d: ([None] * d, None)),
        Slot("rho_hat", "rho_hat", 1, "_rh_", _whole))
BOUND = SLOW[3:5] + SLOW[8:10]   # the window's: a_hat, b_hat and gradients


def _constant_names(prefix: str, pattern, index=()):
    """The names of make's arguments that hold a constant's parts, nested
    as ``pattern`` is: the prefix and the indices of each part, or
    ``<prefix>value`` for the value itself."""
    if pattern is None:
        return prefix + ("_".join(map(str, index)) if index else "value")
    return [_constant_names(prefix, sub, (*index, k))
            for k, sub in enumerate(pattern)]


def _flat(parts) -> list:
    return [parts] if type(parts) is str else [x for p in parts
                                                 for x in _flat(p)]


def _constant_arguments(slot: Slot, value, d: int):
    """make's arguments for the constant ``value`` of ``slot`` at d
    actions: the parts its read takes of the value, named by
    :func:`_constant_names`; or None when the value is not of the read's
    shape, item counts included (the member is then called)."""
    pattern = slot.read(d)
    out = {}

    def walk(part, sub, name):
        if sub is None:
            out[name] = part
            return True
        return (np.ndim(part) > 0 and len(part) == len(sub)
                and all(walk(x, s, n) for x, s, n in zip(part, sub, name)))
    return out if walk(value.tolist() if slot.array else value, pattern,
                       _constant_names(slot.prefix, pattern)) else None


def members(table, fns, d: int):
    """The keys of the members ``fns`` of ``table``, in its order, for the
    code of d actions, and the arguments of its ``make``: each member by
    its ``Slot.call`` and the values of :func:`outside`'s names.

    A member is written in as :func:`written_in` decides.  One made by
    ``examples.constant`` is bound once per run, as the parts its read
    takes of the value (``Slot.read``), unless the value is not of that
    shape.  Any other member is called, its key None; a member given as
    None is one the code does not evaluate, its key :data:`ABSENT`."""
    keys, arguments = [], {}
    for slot, fn in zip(table, fns):
        arguments[slot.call] = fn
        member = written_in(fn, slot.nargs)
        values = None
        if member is not None and member.key is CONSTANT:
            values = _constant_arguments(slot, member.values, d)
        elif member is not None:
            values = {slot.prefix + name: value
                      for name, value in member.values.items()}
        keys.append(ABSENT if fn is None else
                    None if values is None else member.key)
        arguments.update(values or {})
    return tuple(keys), arguments


def outside(table, keys, d: int) -> list:
    """The names of ``make``'s arguments that the members of ``table``
    with ``keys`` read, in table order: the names each written-in body
    reads from outside, prefixed, and each constant's parts."""
    names = []
    for slot, key in zip(table, keys):
        if key is CONSTANT:
            names += _flat(_constant_names(slot.prefix, slot.read(d)))
        elif key:
            names += [slot.prefix + name
                      for name in inline_form(*key[:2]).free]
    return names


class Calls:
    """The member calls of one evaluation of the code of d actions, each
    member of ``table`` written in, read from its constant's parts or
    called, by its key in ``keys`` (:func:`members`); an :data:`ABSENT` one
    raises ``KeyError``.  ``used`` collects the arguments the written lines
    read, whole or by component; lines are never written in item order."""

    def __init__(self, table, keys, d: int):
        self.members = {slot.name: (slot, key)
                        for slot, key in zip(table, keys) if key is not ABSENT}
        self.d = d
        self.used = set()

    def value(self, name, args, bind, whole=False):
        """Lines that evaluate the member ``name`` on ``args``, one
        ``(components, whole)`` pair per parameter, and the expressions of
        the parts of its value its read takes, bound to names that start
        with ``bind``; with ``whole``, of the value itself, which no
        constant is read as.  A member read as a list (``Slot.array``)
        gives the lines of the unpacking third, for the caller to place."""
        slot, key = self.members[name]
        pattern = None if whole else slot.read(self.d)
        if key is CONSTANT:
            out = [], _constant_names(slot.prefix, pattern), []
        elif key is not None:
            out = _write(key, slot.prefix, args, self.used, bind, pattern,
                         slot.array)
        else:
            wholes = [arg for _, arg in args]
            self.used.update(wholes)
            call = f"{bind} = {slot.call}({', '.join(wholes)})"
            lines, parts = _read(bind, pattern, bind)
            out = (([call + ".tolist()"], parts, lines) if slot.array
                   else ([call, *lines], parts, []))
        return out if slot.array else out[:2]

    def by_items(self, name, n: int) -> bool:
        """Whether the n items of the value of ``name`` are bound one by
        one: a constant's parts, or a written-in display of n items."""
        _, key = self.members[name]
        return key is CONSTANT or (
            key is not None
            and _items(inline_form(*key[:2]).value, n) is not None)
