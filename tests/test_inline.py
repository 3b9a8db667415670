"""The inliner: the forms it writes in, equal to their calls bit for bit,
and the member tables of the two solves."""
import dataclasses
import functools
import math
import types

import numpy as np
import pytest

import averbound as ab
from averbound import direct, estimator, inline
from averbound.examples import constant
from conftest import toy_linear_decay


def _nested(parts):
    if isinstance(parts, str):
        return parts
    return "[" + ", ".join(_nested(p) for p in parts) + "]"


def _table(nargs, pattern=None, array=False):
    """A member table of one member ``m`` of ``nargs`` arguments whose
    value is read as ``pattern`` (as a list, ``.tolist()``, with
    ``array``)."""
    return (inline.Slot("m", "m", nargs, "_m_", lambda d: pattern, array),)


def _written(fn, nargs, pattern=None, array=False, components=()):
    """``fn`` written in as a function of its ``nargs`` arguments that
    returns the parts of its value that ``pattern`` reads, nested as the
    pattern is (read as a list, ``.tolist()``, with ``array``), and the
    names the written code read.  The arguments whose positions
    ``components`` lists have their components named ``a<k>_<i>``."""
    table = _table(nargs, pattern, array)
    keys, arguments = inline.members(table, [fn], 1)
    assert keys[0] is not None and keys[0] is not inline.CONSTANT
    params = [f"a{k}" for k in range(nargs)]
    args, split = [], []
    for k, param in enumerate(params):
        if k in components:
            comps = [f"{param}_{i}" for i in range(components[k])]
            split.append(f"[{', '.join(comps)}] = {param}")
            args.append((comps, param))
        else:
            args.append(((), param))
    calls = inline.Calls(table, keys, 1)
    lines, parts, *unpack = calls.value("m", args, "v")
    body = split + lines + sum(unpack, []) + [f"return {_nested(parts)}"]
    make_params = ", ".join(["m", *inline.outside(table, keys, 1)])
    source = (f"def make({make_params}):\n"
              f"    def call({', '.join(params)}):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return call\n")
    namespace = {}
    exec(source, namespace)
    return namespace["make"](**arguments), calls.used


def _bits(x):
    if isinstance(x, (list, tuple)):
        return [_bits(v) for v in x]
    return (type(x), np.float64(x).tobytes() if isinstance(x, float) else x)


def _log(x):
    return math.log(x)


def _reciprocal(x):
    y = 1.0 / x
    return y


def _spilled(a, b):
    # math.log(a) is evaluated before the helper call, the helper before
    # the rest of the sum.
    return math.log(a) + _reciprocal(b) * math.log(b + 1.0)


def _guarded(a, b):
    return _reciprocal(b) if a > 0.0 else 0.0


def _short_circuit(a, b):
    return a > 0.0 and _reciprocal(b) > 0.0


@pytest.mark.parametrize("fn, a, b, raises", [
    (_spilled, 0.0, 0.0, ValueError),          # log(0) before 1 / 0
    (_spilled, 1.0, 0.0, ZeroDivisionError),
    (_spilled, 2.0, -1.0, ValueError),         # log(0) after the helper
    (_spilled, 2.0, 3.0, None),
    (_guarded, -1.0, 0.0, None),
    (_guarded, 1.0, 0.0, ZeroDivisionError),
    (_short_circuit, -1.0, 0.0, None),
    (_short_circuit, 1.0, 0.0, ZeroDivisionError),
])
def test_helper_calls_keep_the_order_of_evaluation(fn, a, b, raises):
    # A helper the body calls is called where the body calls it, in a
    # conditional part too.  The first exception is the call's, and so is
    # the value.
    written, _ = _written(fn, 2)
    if raises is None:
        assert _bits(written(a, b)) == _bits(fn(a, b))
        return
    with pytest.raises(raises):
        fn(a, b)
    with pytest.raises(raises):
        written(a, b)


def _source(fn, nargs):
    """The lines of one call of ``fn`` written in on the arguments
    ``a0``, ``a1``, ..., its value bound to ``v``."""
    table = _table(nargs)
    keys, _ = inline.members(table, [fn], 1)
    lines, _ = inline.Calls(table, keys, 1).value(
        "m", [((), f"a{k}") for k in range(nargs)], "v")
    return "\n".join(lines)


def test_a_helper_is_called_from_make():
    # The helper _spilled calls is one of make's arguments, under the
    # member's prefix, and the written code calls it.
    table = _table(2)
    keys, arguments = inline.members(table, [_spilled], 1)
    assert "_m__reciprocal" in inline.outside(table, keys, 1)
    assert arguments["_m__reciprocal"] is _reciprocal
    assert "_m__reciprocal(a1)" in _source(_spilled, 2)


def _recursive(x):
    return x if x < 1.0 else _recursive(x - 1.0)


def _calls_recursive(x):
    return 2.0 * _recursive(x)


def test_a_recursive_helper_is_called():
    # Compiled outside its module a function that calls itself reads its
    # name from a closure, not its globals: its code differs, and it is
    # called.  The member that calls it is written in.
    assert inline.written_in(_recursive, 1) is None
    assert inline.written_in(_calls_recursive, 1) is not None
    written, _ = _written(_calls_recursive, 1)
    assert _bits(written(5.5)) == _bits(_calls_recursive(5.5))


def _grad(j, rmat, k, r):
    x = float(j[0]) + r
    slope = 3.0 * x * x
    return (slope, 2.0 * j[1]), ((0.0, x), (-1.0, slope)), (0.5, -0.5), slope


def _grad_list(j, rmat, k, r):
    return [j[0], j[1]], ((r,), (0.0,)), (0.5,), r


def _grad_whole(j, rmat, k, r):
    parts = (j[0], j[1]), ((r, r), (r, r)), (0.5, 1.0), r
    return parts


_GRAD = ([None, None], [[None, None], [None, None]], [None, None], None)


@pytest.mark.parametrize("fn", [_grad, _grad_list, _grad_whole])
def test_tuple_returns_bind_their_parts(fn):
    # A returned display, nested ones included, binds one name per part
    # read; a part of another length, or a value that is no display, is
    # read from the value as the call's value is, and fails as it does.
    written, _ = _written(fn, 4, _GRAD)
    rng = np.random.default_rng(3)
    for _ in range(100):
        j = rng.standard_normal(2).tolist()
        r = float(rng.standard_normal())
        want = fn(j, None, None, r)
        try:
            expect = [[want[0][0], want[0][1]],
                      [[want[1][a][b] for b in range(2)] for a in range(2)],
                      [want[2][0], want[2][1]], want[3]]
        except IndexError:
            with pytest.raises(IndexError):
                written(j, None, None, r)
            continue
        assert _bits(written(j, None, None, r)) == _bits(expect)


def _top(j, rmat, k, r):
    j1, j2 = j
    a = j1 - r
    return 0.5 * math.sqrt(1 / a ** 2 + 1 / (j2 - r) ** 2)


def _rebinding(j, rmat, k, r):
    j1, j2 = j
    j1 = j1 * 2.0
    return j1 - j2 * r


def test_unpacking_a_parameter_reads_its_components():
    # j1, j2 = j binds no line: the body reads the components, and the
    # list is not read at all.  A name bound again later is unpacked from
    # the list as the call unpacks it.
    written, used = _written(_top, 4, components={0: 2})
    assert "a0" not in used and {"a0_0", "a0_1"} <= used
    for j in ([4.0, 1.0], [2.5, 3.0]):
        assert _bits(written(j, None, None, 0.1)) == _bits(_top(j, None,
                                                                  None, 0.1))
    with pytest.raises(ValueError):
        _written(_top, 4)[0]([1.0, 2.0, 3.0], None, None, 0.1)
    written, used = _written(_rebinding, 4, components={0: 2})
    assert "a0" in used
    assert (_bits(written([4.0, 1.5], None, None, 0.25))
            == _bits(_rebinding([4.0, 1.5], None, None, 0.25)))


def _dfbar(i):
    return np.array([[1.0 - i[0], 2 * i[1]], [0, np.sin(i[0]) * i[1]]])


def _dfbar_int(i):
    return np.array([[1, 0], [0, 1]])


def _dfbar_ragged(i):
    return np.array([[1.0 - i[0]], [i[1], 0.0]])


class _NotNumpy:
    @staticmethod
    def array(value):
        return np.array(value) * 2.0


def _dfbar_other(i):
    return np_like.array([[i[0], 0.0], [0.0, i[1]]])


np_like = _NotNumpy()


@pytest.mark.parametrize("fn, items", [(_dfbar, True), (_dfbar_int, True),
                                       (_dfbar_ragged, False),
                                       (_dfbar_other, False)])
def test_array_returns_read_as_lists(fn, items):
    # np.array of a display of one point binds float(item) per item, what
    # .tolist() of its float64 array gives (an int item is read as the
    # float of the same value); another shape, or an np that is not numpy,
    # is read through .tolist() and unpacked, and fails as the call's list
    # does.
    member = inline.written_in(fn, 1)
    assert member.key[2] is (fn is not _dfbar_other)
    written, _ = _written(fn, 1, ((None, None), (None, None)), array=True)
    for i in ([0.5, 2.0], [-1.5, 3.0]):
        try:
            [[a, b], [c, d]] = fn(i).tolist()
        except ValueError:
            with pytest.raises(ValueError):
                written(i)
            continue
        got = written(i)
        assert _bits(got) == _bits([[float(a), float(b)],
                                    [float(c), float(d)]])
        assert _bits(got) == _bits(fn(i).astype(float).tolist())
        if items:
            assert "tolist" not in _array_source(fn)


def _array_source(fn):
    table = _table(1, ((None, None), (None, None)), True)
    keys, _ = inline.members(table, [fn], 1)
    lines, _, unpack = inline.Calls(table, keys, 1).value("m", [((), "i")],
                                                          "v")
    return "\n".join(lines + unpack)


def test_constant_members_are_recognised():
    member = inline.written_in(constant([[1.0, 0.0], [0.0, 2.0]]), 1)
    assert member.key is inline.CONSTANT
    assert member.values.tolist() == [[1.0, 0.0], [0.0, 2.0]]
    assert inline.written_in(lambda *args: np.zeros(1), 1) is None


def test_refused_forms_are_called():
    namespace = {}
    exec("def f(i):\n    return i[0]\n", namespace)

    def wrapper(*args):
        return _log(*args)

    def looped(x):
        for _ in range(2):
            x = x + 1.0
        return x
    for fn in (lambda x: x, wrapper, looped, namespace["f"], math.log,
               types.MethodType(_log, 2.0)):
        assert inline.written_in(fn, 1) is None


@pytest.mark.parametrize("table", [inline.DIRECT, inline.SLOW],
                         ids=["direct", "slow"])
def test_member_prefixes_keep_apart(table):
    # The names a written-in body binds and reads, and a constant's parts,
    # take the member's prefix: none is another's start, and each starts
    # with "_", which no name of the generated evaluation does.
    prefixes = [slot.prefix for slot in table]
    assert all(prefix.startswith("_") for prefix in prefixes)
    assert not any(a != b and b.startswith(a)
                   for a in prefixes for b in prefixes)
    assert len(set(prefixes)) == len(prefixes)
    assert len({slot.name for slot in table}) == len(table)


@pytest.mark.parametrize("name,i0", [("vdp", [0.5]), ("euler", [4.0, 1.0])],
                         ids=["gradients", "differences"])
def test_calls_refuses_an_absent_member(request, name, i0):
    # A member given as None has the falsy key ABSENT: make gets None for
    # it, outside names no argument of it, and Calls writes no evaluation
    # of it, so a builder that asks for it fails when the source is
    # written.  The slow solve's keys leave out the pair its partials do
    # not take, a_hat and b_hat with gradients and a_grad and b_grad
    # without, and both its sources are written without asking for them.
    example = request.getfixturevalue(name)
    spec = example.make_system(i0, 1e-2)
    d, bounds = spec.d, example.bounds
    keys, arguments = inline.members(
        inline.SLOW, estimator._evaluated(example.aux, bounds), d)
    absent = [slot for slot, key in zip(inline.SLOW, keys)
              if key is inline.ABSENT]
    assert not inline.ABSENT
    assert [slot.name for slot in absent] == (
        ["a_hat", "b_hat"] if bounds.a_grad is not None
        else ["a_grad", "b_grad"])
    assert all(arguments[slot.call] is None for slot in absent)
    assert not any(name.startswith(slot.prefix) for slot in absent
                   for name in inline.outside(inline.SLOW, keys, d))
    calls = inline.Calls(inline.SLOW, keys, d)
    for slot in absent:
        with pytest.raises(KeyError):
            calls.value(slot.name, [([], "x")] * slot.nargs, "v")
    estimator._slow_rhs_source(d, keys)
    window_keys, _ = inline.members(inline.BOUND,
                                    estimator._window_members(bounds), d)
    assert [key is inline.ABSENT for key in window_keys] == (
        [False] * 4 if bounds.a_grad is not None else [False, False, True, True])
    estimator._window_source(d, window_keys)


def _wrapped(fn):
    """``fn`` behind ``functools.wraps``, which the inliner refuses."""
    @functools.wraps(fn)
    def call(*args):
        return fn(*args)
    return call


def _constant_system(d):
    """A system of d actions whose fbar, dfbar, pbar and c_hat are made by
    ``examples.constant``; its other members are lambdas, which are
    called."""
    spec, aux, bounds = toy_linear_decay(d=d)
    rates = [-0.1, -0.05][:d]
    spec = dataclasses.replace(
        spec, f=lambda i, th: [r * (1.0 + math.cos(th)) for r in rates])
    aux = dataclasses.replace(
        aux, fbar=constant(rates),
        dfbar=constant([[-0.5, 0.25], [0.0, -0.75]][:d] if d == 2
                       else [[-0.5]]),
        pbar=constant([0.01, -0.02][:d]))
    return spec, aux, dataclasses.replace(bounds, c_hat=constant(0.01))


def _constant_keys(table, fns, d):
    keys, _ = inline.members(table, fns, d)
    return [slot.name for slot, key in zip(table, keys)
            if key is inline.CONSTANT]


def _same_trajectory(got, want):
    for part in ("times", "states", "derivs"):
        assert getattr(got, part).tobytes() == getattr(want, part).tobytes()
    assert got.stats == want.stats
    assert got.status is want.status
    assert (got.stop_time, got.stop_reason) == (want.stop_time,
                                                 want.stop_reason)


@pytest.mark.parametrize("d", [1, 2])
def test_constant_members_are_bound_once_in_both_solves(d):
    # One rule in both solves: a constant member is bound once per run,
    # as the parts its evaluation reads, and each solve equals the one that
    # calls the same members (behind functools.wraps) bit for bit: nodes,
    # slopes, step counts and the stop.
    spec, aux, bounds = _constant_system(d)
    assert _constant_keys(inline.DIRECT, direct._evaluated(spec, aux),
                          d) == ["fbar"]
    assert _constant_keys(inline.SLOW, estimator._evaluated(aux, bounds),
                          d) == ["fbar", "dfbar", "pbar", "c_hat"]
    called_aux = dataclasses.replace(aux, fbar=_wrapped(aux.fbar),
                                     dfbar=_wrapped(aux.dfbar),
                                     pbar=_wrapped(aux.pbar))
    called_bounds = dataclasses.replace(bounds, c_hat=_wrapped(bounds.c_hat))
    assert not any(inline.members(inline.SLOW, estimator._evaluated(
        called_aux, called_bounds), d)[0])
    assert not any(inline.members(inline.DIRECT, direct._evaluated(
        spec, called_aux), d)[0])
    runs = []
    for run_aux, run_bounds in ((aux, bounds), (called_aux, called_bounds)):
        est = ab.run_estimator(spec, run_aux, run_bounds, 2.0)
        avg = ab.run_averaged(spec, run_aux, 2.0)
        runs.append((est, ab.run_direct(spec, run_aux, avg, 2.0)))
    (est, fast), (est_called, fast_called) = runs
    assert est.status.value == "completed" and est.traj.stats.accepted > 5
    assert est.ell0 == est_called.ell0
    _same_trajectory(est.traj, est_called.traj)
    assert fast.status is ab.Status.COMPLETED
    _same_trajectory(fast.traj, fast_called.traj)
