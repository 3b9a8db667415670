"""The inliner: the forms it writes in, equal to their calls bit for bit."""
import math
import types

import numpy as np
import pytest

from averbound import inline
from averbound.examples import constant


def _nested(parts):
    if isinstance(parts, str):
        return parts
    return "[" + ", ".join(_nested(p) for p in parts) + "]"


def _written(fn, nargs, pattern=None, array=False, components=()):
    """``fn`` written in as a function of its ``nargs`` arguments that
    returns the parts of its value that ``pattern`` reads, nested as the
    pattern is (read as a list, ``.tolist()``, with ``array``), and the
    names the written code read.  The arguments whose positions
    ``components`` lists have their components named ``a<k>_<i>``."""
    member = inline.written_in(fn, nargs)
    assert member is not None and member.key is not inline.CONSTANT
    params = [f"a{k}" for k in range(nargs)]
    used = set()
    args, split = [], []
    for k, param in enumerate(params):
        if k in components:
            comps = [f"{param}_{i}" for i in range(components[k])]
            split.append(f"[{', '.join(comps)}] = {param}")
            args.append((comps, param))
        else:
            args.append(((), param))
    lines, parts, *unpack = inline.write(member.key, "_m_", args, used, "v",
                                         pattern, array)
    body = split + lines + sum(unpack, []) + [f"return {_nested(parts)}"]
    source = (f"def make({', '.join(inline.outside(member.key, '_m_'))}):\n"
              f"    def call({', '.join(params)}):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return call\n")
    namespace = {}
    exec(source, namespace)
    return namespace["make"](**inline.arguments(member, "_m_")), used


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
    member = inline.written_in(fn, nargs)
    lines, source = inline.write(
        member.key, "_m_", [((), f"a{k}") for k in range(nargs)], set(), "v")
    return "\n".join(lines)


def test_a_helper_is_called_from_make():
    # The helper _spilled calls is one of make's arguments, under the
    # member's prefix, and the written code calls it.
    member = inline.written_in(_spilled, 2)
    assert "_m__reciprocal" in inline.outside(member.key, "_m_")
    assert inline.arguments(member, "_m_")["_m__reciprocal"] is _reciprocal
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
    member = inline.written_in(fn, 1)
    lines, _, unpack = inline.write(member.key, "_m_", [((), "i")], set(),
                                    "v", ((None, None), (None, None)), True)
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
