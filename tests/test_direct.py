"""Fast-time comparison run: exactness, envelope, domain exit, budget."""
import dataclasses
import functools
import math
import operator
import time

import numpy as np
import pytest

import averbound as ab
from averbound import direct, ode
from averbound import inline as inliner
from averbound.direct import DirectTrajectory, envelope

from conftest import (chunks_reference, direct_reference, envelope_reference,
                      float_kernel_reference, integrate_reference,
                      run_direct_reference, toy_linear_decay)


@pytest.mark.parametrize("d", [1, 2, 4, 5])
def test_angle_free_perturbation_keeps_error_zero(d):
    # At d = 4 the direct state has five components, the largest the float
    # kernel of ode takes; at d = 5 it has six.  The direct run steps every
    # d on its own generated float run.
    spec, aux, bounds = toy_linear_decay(d=d)
    avg = ab.run_averaged(spec, aux, 5.0)
    dtraj = ab.run_direct(spec, aux, avg, 5.0)
    assert dtraj.status is ode.Status.COMPLETED
    assert dtraj.traj.states.shape[1] == d + 1
    assert dtraj.abs_l.max() < 1e-10
    assert np.all(dtraj.l[0] == 0.0)
    assert dtraj.theta[0] == spec.theta0


@pytest.mark.parametrize("d", [1, 2, 3])
def test_registered_system_matches_the_numpy_reference(monkeypatch, d):
    # A registered system whose callables index their actions runs through
    # the one list rhs, handed lists, and steps to the same bits as the
    # numpy right-hand side of conftest, which hands them ndarrays.
    _, aux, bounds = toy_linear_decay(d=d)      # fbar = -I

    def factory(params):
        return ab.ExampleDefinition(
            id="indexed", d=d, params={},
            omega=lambda i: 1.0 + sum(x * x for x in i),
            f=lambda i, th: [2.0 * x * math.cos(th) - x for x in i],
            g=lambda i, th: sum(x * x for x in i) * math.sin(th),
            in_domain=lambda i: all(x > 0.0 for x in i),
            aux=aux, bounds=bounds,
            sample_box=(np.full(d, 0.5), np.full(d, 2.0)))
    ab.register_system("indexed", factory)
    example = ab.make_example("indexed")
    u = 2.0
    spec = example.make_system(np.linspace(1.0, 2.0, d), 1e-2, theta0=0.3)
    avg = ab.run_averaged(spec, example.aux, u)
    dtraj = ab.run_direct(spec, example.aux, avg, u)
    assert dtraj.status is ode.Status.COMPLETED

    integrate = ode._integrate
    rhs, stop = direct_reference(spec, example.aux, avg)

    def on_numpy(problem, rtol, atol, _, first_step, kernel, chunks,
                 out_of_time):
        # The numpy reference, adapted at its edge to the list states, on
        # the step that calls rhs in place of the fused one.
        assert kernel is not None
        return integrate(dataclasses.replace(
            problem, rhs=lambda t, y: rhs(t, np.array(y)).tolist()),
            rtol, atol, lambda t, y: stop(t, np.array(y)), first_step, None,
            chunks, out_of_time)
    monkeypatch.setattr(ode, "_integrate", on_numpy)
    ref = ab.run_direct(spec, example.aux, avg, u)
    assert np.array_equal(dtraj.t, ref.t)
    assert np.array_equal(dtraj.l, ref.l)
    assert np.array_equal(dtraj.traj.states, ref.traj.states)
    assert np.array_equal(dtraj.traj.derivs, ref.traj.derivs)
    assert dtraj.abs_l.max() > 0.01


def _angle_system(d, raise_at=()):
    """A d-action system whose error L grows, with fbar = -I, and the list
    whose one item counts the calls of its f from then on.  f raises
    ``ValueError`` at the calls numbered in ``raise_at``."""
    spec, aux, _ = toy_linear_decay(d=d)
    calls = [0]

    def f(i, th):
        calls[0] += 1
        if calls[0] in raise_at:
            raise ValueError("f refused")
        return [2.0 * x * math.cos(th) - x for x in i]
    spec = dataclasses.replace(
        spec, i0=np.linspace(1.0, 2.0, d), theta0=0.3, f=f,
        omega=lambda i: 1.0 + sum(x * x for x in i),
        g=lambda i, th: sum(x * x for x in i) * math.sin(th))
    calls[0] = 0       # the spec calls f once, at i0
    return spec, aux, calls


def _on_reference(problem, rtol, atol, stop, first_step, kernel, chunks=1,
                  out_of_time=None):
    """``ode._integrate`` as conftest's loops: chunks_reference around
    integrate_reference, with its loop kernel on the generated right-hand
    side ``problem.rhs`` in place of the generated run ``kernel``, or on
    its own when there is none, as for the averaged run."""
    if kernel is None:
        assert chunks == 1
        return integrate_reference(problem, rtol, atol, stop, first_step)
    size = problem.y0.size
    return chunks_reference(
        lambda chunk, h_warm: integrate_reference(
            chunk, rtol, atol, stop, h_warm,
            float_kernel_reference(chunk.rhs, size, rtol, atol)),
        problem, first_step, chunks, out_of_time)[0]


@pytest.mark.parametrize("d", [1, 2, 3, 5])
@pytest.mark.parametrize("raise_at", [(), (40, 1003)])
def test_fused_step_matches_the_loop_kernel_on_the_rhs(monkeypatch, d,
                                                       raise_at):
    # The run with the right-hand side written into its stages takes the
    # steps that conftest's loop, integrate_reference, takes with its loop
    # kernel on the generated right-hand side, bit for bit: the same nodes,
    # states, slopes and counts.  Calls
    # 40 and 1003 of f fall mid-step (a start takes calls 1 and 2, every
    # step attempt 6): each raises ValueError in a stage, and the step is
    # retried at half size.
    u = 2.0

    def run():
        spec, aux, f_calls = _angle_system(d, raise_at)
        avg = ab.run_averaged(spec, aux, u)
        return ab.run_direct(spec, aux, avg, u), f_calls[0]
    fused, fused_calls = run()
    monkeypatch.setattr(ode, "_integrate", _on_reference)
    ref, ref_calls = run()
    for dtraj in (fused, ref):
        assert dtraj.status is ode.Status.COMPLETED
        assert dtraj.abs_l.max() > 0.01
    assert fused.t.tobytes() == ref.t.tobytes()
    assert fused.traj.states.tobytes() == ref.traj.states.tobytes()
    assert fused.traj.derivs.tobytes() == ref.traj.derivs.tobytes()
    assert fused.traj.stats == ref.traj.stats
    stats = fused.traj.stats
    # Every evaluation is counted, a raising one included.
    assert stats.rhs_evals == fused_calls == ref_calls
    assert stats.nan_retries == len(raise_at)
    full = 6 * (stats.accepted + stats.rejected) + direct._BUDGET_CHUNKS + 1
    if raise_at:
        assert stats.rhs_error == "ValueError: f refused"
        assert stats.rhs_evals < full
    else:
        assert stats.rhs_evals == full


def _called(fn):
    """``fn`` behind the wrapper perfbench's tracer puts around it: the
    direct step calls it."""
    def wrapped(*args):
        return fn(*args)
    return wrapped


def _members(spec, aux):
    """f, fbar, omega, g and in_domain with the number of arguments each
    takes, in the order the direct run evaluates them."""
    return ((spec.f, 2), (aux.fbar, 1), (spec.omega, 1), (spec.g, 2),
            (spec.in_domain, 1))


def _assert_same_run(got, want):
    assert got.status is want.status
    assert got.t.tobytes() == want.t.tobytes()
    assert got.traj.states.tobytes() == want.traj.states.tobytes()
    assert got.traj.derivs.tobytes() == want.traj.derivs.tobytes()
    assert got.traj.stats == want.traj.stats


def _inline_and_called(spec, aux, u):
    """The direct run as it is, and with every member behind
    :func:`_called`, against one averaged run."""
    avg = ab.run_averaged(spec, aux, u)
    inline = ab.run_direct(spec, aux, avg, u)
    called_spec = dataclasses.replace(
        spec, f=_called(spec.f), g=_called(spec.g),
        omega=_called(spec.omega), in_domain=_called(spec.in_domain))
    called_aux = dataclasses.replace(aux, fbar=_called(aux.fbar))
    assert not any(inliner.written_in(fn, n)
                   for fn, n in _members(called_spec, called_aux))
    return inline, ab.run_direct(called_spec, called_aux, avg, u)


@pytest.mark.parametrize("make, i0, u", [
    (ab.make_vdp, (0.5,), 2.0),
    (lambda: ab.make_action_freq(1), (1.0,), 0.5),
    (lambda: ab.make_action_freq(-1), (1.0,), 2.0),
    (ab.make_resonant, (2.0,), 2.0),
    (lambda: ab.make_euler_top(1.0, 2.0, -1.0), (4.0, 1.0), 1.0),
    (lambda: ab.make_euler_top(1.0, 1.1, -1.0), (4.0, 4.0), 1.0),
], ids=["vdp", "action-freq+1", "action-freq-1", "resonant", "euler-top-a",
        "euler-top-d"])
def test_written_in_members_match_their_calls(make, i0, u):
    # Every built-in member is written into the direct step, and the run
    # equals the one that calls each member, bit for bit: nodes, states,
    # slopes and step counts.
    example = make()
    spec = example.make_system(i0, 1e-2)
    assert all(inliner.written_in(fn, n)
               for fn, n in _members(spec, example.aux))
    inline, called = _inline_and_called(spec, example.aux, u)
    assert inline.status is ode.Status.COMPLETED
    _assert_same_run(inline, called)


_GAIN = 2.0      # a module global that a written-in body reads


def _shaped_members(rate):
    """f, fbar, omega, g and in_domain of a two-action system with fbar =
    -I, each written in, in shapes the built-ins do not use: a docstring,
    chained and reused locals, a closure value and a module global, a
    tuple display, a negative index, reads of the whole actions, a return
    value that is no display and a conditional expression."""
    def f(i, th):
        """f = (I0 (rate cos - 1), I1 (gain cos - 1))."""
        c = math.cos(th)
        a = b = c * rate
        a = a - 1.0 + 0.0 * b
        return (i[0] * a, i[-1] * (_GAIN * c - 1.0))

    def fbar(i):
        return list(map(operator.neg, i))

    def omega(i):
        return 1.0 + sum(i) / len(i)

    def g(i, th):
        return math.sin(th) * i[1] if i[0] > 0.0 else 0.0

    def in_domain(i):
        lo = min(i)
        return lo > 0.0
    return f, fbar, omega, g, in_domain


def _growing_members():
    """f and fbar of a one-action system with fbar = I, which fbar returns
    as it is handed it."""
    def f(i, th):
        return [i[0] * (1.0 + 2.0 * math.cos(th))]

    def fbar(i):
        return i
    return f, fbar


def test_written_in_shapes_match_their_calls():
    spec, aux, _ = toy_linear_decay(d=2)
    f, fbar, omega, g, in_domain = _shaped_members(0.5)
    spec = dataclasses.replace(spec, i0=np.array([1.0, 2.0]), theta0=0.3,
                               f=f, omega=omega, g=g, in_domain=in_domain)
    aux = dataclasses.replace(aux, fbar=fbar)
    assert all(inliner.written_in(fn, n) for fn, n in _members(spec, aux))
    inline, called = _inline_and_called(spec, aux, 2.0)
    assert inline.status is ode.Status.COMPLETED
    assert inline.abs_l.max() > 0.01
    _assert_same_run(inline, called)


def test_fbar_returning_its_argument_is_read_as_a_list():
    # fbar's return value is the actions it is handed, no display of its
    # own: fbar(J) is the list [j0], kept between stages as the called
    # fbar's value is.  omega, g and in_domain (lambdas) stay calls.
    spec, aux, _ = toy_linear_decay()
    f, fbar = _growing_members()
    spec = dataclasses.replace(spec, theta0=0.3, f=f)
    aux = dataclasses.replace(aux, fbar=fbar)
    assert inliner.written_in(f, 2) and inliner.written_in(fbar, 1)
    inline, called = _inline_and_called(spec, aux, 1.0)
    assert inline.status is ode.Status.COMPLETED
    assert inline.abs_l.max() > 0.01
    _assert_same_run(inline, called)


def _vdp_f_branching(i, th):
    x = i[0]
    if th != th:
        return [math.nan]
    return [x * (1 - x / 2) - x * math.cos(2 * th)
            + x * x / 2 * math.cos(4 * th)]


def _vdp_f_defaulted(i, th, two=2):
    x = i[0]
    return [x * (1 - x / 2) - x * math.cos(2 * th)
            + x * x / 2 * math.cos(4 * th)]


def _vdp_f_forwarding(fn):
    def forward(i, th):
        return fn(i, th)
    return functools.wraps(fn)(forward)


def _vdp_f_executed():
    namespace = {"math": math}
    exec("def f(i, th):\n"
         "    x = i[0]\n"
         "    return [x * (1 - x / 2) - x * math.cos(2 * th)\n"
         "            + x * x / 2 * math.cos(4 * th)]\n", namespace)
    return namespace["f"]


@pytest.mark.parametrize("shape", ["lambda", "wraps", "if", "default",
                                   "exec"])
def test_refused_shapes_are_called(shape):
    # Each of these is van der Pol's f, which the direct step calls rather
    # than writes in; the run equals the one with f written in, bit for bit.
    example = ab.make_vdp()
    spec = example.make_system((0.5,), 1e-2)
    f = {
        "lambda": lambda i, th: [
            i[0] * (1 - i[0] / 2) - i[0] * math.cos(2 * th)
            + i[0] * i[0] / 2 * math.cos(4 * th)],
        "wraps": _vdp_f_forwarding(spec.f),
        "if": _vdp_f_branching,
        "default": _vdp_f_defaulted,
        "exec": _vdp_f_executed(),
    }[shape]
    assert inliner.written_in(spec.f, 2)
    assert inliner.written_in(f, 2) is None
    u = 1.0
    avg = ab.run_averaged(spec, example.aux, u)
    want = ab.run_direct(spec, example.aux, avg, u)
    got = ab.run_direct(dataclasses.replace(spec, f=f), example.aux, avg, u)
    _assert_same_run(got, want)


def _raising_at(c):
    """f and g of a one-action system that raise at the action c, f by
    dividing by zero and g from ``math.log``, with no effect on their
    values elsewhere."""
    def f(i, th):
        return [2.0 * i[0] * math.cos(th) - i[0] + 0.0 * (1.0 / (i[0] - c))]

    def g(i, th):
        return 0.0 * math.sin(th) if i[0] != c else math.log(0.0)
    return f, g


def test_written_in_member_raises_as_its_call():
    # c is the action at f's 40th evaluation, which falls mid-step (see
    # test_fused_step_matches_the_loop_kernel_on_the_rhs): there the
    # written-in f raises ZeroDivisionError as its call does, before g,
    # which would raise ValueError, is reached; the step is retried at half
    # size, and the two runs agree bit for bit.
    spec, aux, _ = toy_linear_decay()
    f, g = _raising_at(-1.0)
    spec = dataclasses.replace(spec, theta0=0.3, f=f, g=g)
    u = 2.0
    avg = ab.run_averaged(spec, aux, u)
    seen = []

    def recording(i, th):
        seen.append(i[0])
        return f(i, th)
    ab.run_direct(dataclasses.replace(spec, f=recording), aux, avg, u)
    f, g = _raising_at(seen[39])
    spec = dataclasses.replace(spec, f=f, g=g)
    assert inliner.written_in(f, 2) and inliner.written_in(g, 2)
    inline = ab.run_direct(spec, aux, avg, u)
    called = ab.run_direct(
        dataclasses.replace(spec, f=_called(f), g=_called(g)), aux, avg, u)
    _assert_same_run(inline, called)
    stats = inline.traj.stats
    assert inline.status is ode.Status.COMPLETED
    assert stats.rhs_error == "ZeroDivisionError: float division by zero"
    assert stats.nan_retries == 1


def test_one_compile_serves_every_parameter_set(monkeypatch):
    # The generated source depends on the members' code, not on the values
    # they read from outside: kappa = +1 and -1 share one compile, and so
    # do two euler-top parameter sets.
    compiled = []
    factory = ode._compile_factory

    def counted(source, label, **names):
        compiled.append(label)
        return factory(source, label, **names)
    monkeypatch.setattr(ode, "_compile_factory", counted)
    direct._compile_direct_rhs.cache_clear()
    for example, i0 in ((ab.make_action_freq(1), (1.0,)),
                        (ab.make_action_freq(-1), (1.0,)),
                        (ab.make_euler_top(1.0, 2.0, -1.0), (4.0, 1.0)),
                        (ab.make_euler_top(1.0, 1.1, -1.0), (4.0, 4.0))):
        spec = example.make_system(i0, 1e-2)
        avg = ab.run_averaged(spec, example.aux, 0.1)
        assert ab.run_direct(spec, example.aux, avg, 0.1).status \
            is ode.Status.COMPLETED
    assert compiled == ["<direct rhs, d = 1>", "<direct rhs, d = 2>"]


@pytest.mark.parametrize("d", [1, 2])
def test_domain_exit_matches_the_reference_loop(monkeypatch, d):
    # The run's stop check at each node, with in_domain written in, ends
    # the run where the reference loop's call of the stop predicate does:
    # the same nodes, stop time, stop value and counts, bit for bit.  J
    # decays as exp(-tau) from I0 = 1, and the first action, J + eps L,
    # leaves the domain near tau = 0.27.
    spec, aux, _ = _angle_system(d)
    u = 2.0
    avg = ab.run_averaged(spec, aux, u)

    def in_domain(i):
        return i[0] > 0.75
    spec = dataclasses.replace(spec, in_domain=in_domain)
    assert inliner.written_in(in_domain, 1)
    fused = ab.run_direct(spec, aux, avg, u)
    monkeypatch.setattr(ode, "_integrate", _on_reference)
    ref = ab.run_direct(spec, aux, avg, u)
    assert fused.status is ode.Status.STOPPED
    assert 0.2 < fused.eps * fused.t[-1] < 0.3
    _assert_same_run(fused, ref)
    assert fused.traj.stop_time == ref.traj.stop_time
    assert fused.traj.stop_reason is ref.traj.stop_reason is True
    stats = fused.traj.stats
    assert stats.stop_calls > stats.accepted + 1     # the localisation ran


def test_each_member_source_is_read_once(monkeypatch):
    # The source of a member is read once per code object, on the
    # function: a second run, and a second system with the same members'
    # code (kappa = -1 after +1), read none.  A function without a source
    # is remembered as such.
    read = []
    getsource = inliner.inspect.getsource

    def counted(fn):
        read.append(fn.__name__)
        return getsource(fn)
    monkeypatch.setattr(inliner.inspect, "getsource", counted)
    monkeypatch.setattr(inliner, "_SOURCES", {})
    for kappa in (1, 1, -1):
        example = ab.make_action_freq(kappa)
        spec = example.make_system((1.0,), 1e-2)
        avg = ab.run_averaged(spec, example.aux, 0.1)
        assert ab.run_direct(spec, example.aux, avg, 0.1).status \
            is ode.Status.COMPLETED
    members = [fn for fn, _ in _members(spec, example.aux)]
    assert sorted(read) == sorted(fn.__name__ for fn in members)
    assert set(inliner._SOURCES) == {fn.__code__ for fn in members}
    executed = _vdp_f_executed()
    for _ in range(2):
        assert inliner.written_in(executed, 2) is None
    assert inliner._SOURCES[executed.__code__] is None
    assert read.count("f") == 2


def test_node_cap_holds_over_the_chunks(monkeypatch):
    # The cap counts the nodes of every chunk: with room for half the
    # nodes of the whole run, the run ends in step_failure several chunks
    # in, its buffers within the cap, on the nodes of the run without a
    # cap, and not by the clock.
    example = ab.make_vdp()
    spec = example.make_system((0.5,), 1e-2)
    u = 1.0
    avg = ab.run_averaged(spec, example.aux, u)
    full = ab.run_direct(spec, example.aux, avg, u)
    assert full.status is ode.Status.COMPLETED
    nodes = full.t.size // 2
    cap = nodes * 8 * (1 + 2 * 2)
    monkeypatch.setattr(ode, "_NODE_BYTES_MAX", cap)
    capped = ab.run_direct(spec, example.aux, avg, u)
    traj = capped.traj
    assert capped.status is ode.Status.STEP_FAILURE
    assert not capped.budget_exceeded
    assert traj.stats.rhs_error == ("step attempts reached the node budget "
                                    f"of ode._NODE_BYTES_MAX = {cap} bytes")
    assert traj.times.nbytes + traj.states.nbytes + traj.derivs.nbytes <= cap
    assert nodes - 10 < traj.times.size <= nodes
    assert capped.t[-1] > 10 * u / spec.epsilon / direct._BUDGET_CHUNKS
    n = traj.times.size
    assert traj.times.tobytes() == full.traj.times[:n].tobytes()
    assert traj.states.tobytes() == full.traj.states[:n].tobytes()


def test_stats_sum_over_the_chunks():
    spec, aux, _ = toy_linear_decay()
    avg = ab.run_averaged(spec, aux, 5.0)
    calls = []

    def f(i, th):      # the direct rhs calls f once per evaluation
        calls.append(th)
        return [-x for x in i]
    spec = dataclasses.replace(spec, f=f)
    calls.clear()      # the spec calls f once, at i0
    dtraj = ab.run_direct(spec, aux, avg, 5.0)
    assert dtraj.status is ode.Status.COMPLETED
    stats = dtraj.traj.stats
    assert stats.accepted == len(dtraj.t) - 1
    assert stats.rhs_evals == len(calls)
    # No rhs call raised: six per attempt, two to start the first chunk
    # and one, its slope, to start each later one.
    attempts = stats.accepted + stats.rejected
    assert stats.rhs_evals == 6 * attempts + direct._BUDGET_CHUNKS + 1
    assert stats.nan_retries == 0
    steps = np.diff(dtraj.t)
    assert stats.h_min == pytest.approx(steps.min(), rel=1e-9)
    assert stats.h_max == pytest.approx(steps.max(), rel=1e-9)


# The direct run's chunks, run inside one ode._integrate call, against the
# loop of one _integrate call per chunk that they replaced.

_CHUNK_CASES = ["completed", "short_chunks", "exit", "exit_on_chunk_start",
                "raises_in_two_chunks", "budget_after_first_chunk",
                "budget_after_last_chunk"]


def _chunk_case(d, case):
    """The system and ``run_direct`` keywords of a chunk case, and the
    list whose one item counts the calls of f.  Past ``completed`` and
    ``exit``, the runs are loose, about three steps and 16 calls of f per
    chunk, and f is off by 1e-12 at every other call, so that the slope a
    chunk starts from differs from the one the run gave that node; with
    ``raises_in_two_chunks`` f raises ValueError, naming the call, at
    calls 40 and 1003."""
    spec, aux, calls = _angle_system(d)
    if case in ("completed", "exit"):
        return spec, aux, {}, calls
    angle_f = spec.f

    def f(i, th):
        out = angle_f(i, th)
        if case == "raises_in_two_chunks" and calls[0] in (40, 1003):
            raise ValueError(f"f refused at call {calls[0]}")
        return [x + 1e-12 * (calls[0] % 2) for x in out]
    kwargs = dict(rtol=1e-4, atol=1e-7)
    if case == "budget_after_first_chunk":
        kwargs["time_budget"] = 1e-9
    return dataclasses.replace(spec, f=f), aux, kwargs, calls


def _chunk_start_exit(spec, aux, avg, u, kwargs):
    """``in_domain`` that leaves the domain on the first step of a chunk,
    and the index of the node that chunk starts from: the first chunk from
    t = 100 on whose first step takes the first action, read at the nodes
    of a run without the exit, below its every earlier value, cut halfway
    there."""
    dtraj = ab.run_direct(spec, aux, avg, u, **kwargs)
    chunk = u / spec.epsilon / direct._BUDGET_CHUNKS
    action = (avg.sample_many(dtraj.eps * dtraj.t)[:, 0]
              + spec.epsilon * dtraj.l[:, 0])
    lowest = np.minimum.accumulate(action)
    for k in range(128, direct._BUDGET_CHUNKS):
        start = int(np.argmin(abs(dtraj.t - k * chunk)))
        if action[start + 1] < lowest[start]:
            break
    cut = 0.5 * (lowest[start] + action[start + 1])

    def in_domain(i):
        return i[0] > cut
    return in_domain, start


@pytest.mark.parametrize("case", _CHUNK_CASES)
@pytest.mark.parametrize("d", [1, 2, 3])
def test_run_direct_matches_the_chunk_loop(monkeypatch, d, case):
    # One _integrate call running all the chunks into one set of node
    # buffers gives what conftest's run_direct_reference, one _integrate
    # call per chunk merged by _concat, gives: the same nodes, states,
    # slopes, status, stop, StepStats and budget flag, bit for bit.
    spec, aux, kwargs, calls = _chunk_case(d, case)
    u = 2.0
    avg = ab.run_averaged(spec, aux, u)
    chunk = u / spec.epsilon / direct._BUDGET_CHUNKS
    if case.startswith("exit"):
        if case == "exit":
            def in_domain(i):
                return i[0] > 0.75
        else:
            in_domain, start = _chunk_start_exit(spec, aux, avg, u, kwargs)
        spec = dataclasses.replace(spec, in_domain=in_domain)
    if case == "budget_after_last_chunk":
        # The clock reads 0 until the check after the last chunk: the run
        # asks it at its start, after every chunk and at its end.
        clock = []

        def perf_counter():
            clock.append(None)
            return 1e9 if len(clock) == last else 0.0
        last = None
        monkeypatch.setattr(time, "perf_counter", perf_counter)
        ab.run_direct(spec, aux, avg, u, **kwargs)
        last = len(clock) - 1
    runs = []
    for run in (ab.run_direct, run_direct_reference):
        if case == "budget_after_last_chunk":
            clock.clear()
        calls[0] = 0
        runs.append(run(spec, aux, avg, u, **kwargs))
    got, want = runs
    _assert_same_run(got, want)
    assert got.traj.stop_time == want.traj.stop_time
    assert got.traj.stop_reason == want.traj.stop_reason
    assert got.budget_exceeded is want.budget_exceeded
    stats = got.traj.stats
    if case == "short_chunks":
        # some chunk has at most four steps, so fewer than six nodes
        assert stats.accepted < 5 * direct._BUDGET_CHUNKS
    if case.startswith("exit"):
        assert got.status is ode.Status.STOPPED
        assert got.traj.stop_time == got.t[-1]
    if case == "exit_on_chunk_start":
        assert len(got.t) == start + 2
        assert got.t[-2] / chunk == pytest.approx(round(got.t[-2] / chunk),
                                                 rel=1e-12)
    if case == "raises_in_two_chunks":
        assert stats.nan_retries == 2
        assert stats.rhs_error == "ValueError: f refused at call 1003"
        assert got.status is ode.Status.COMPLETED
    if case == "budget_after_first_chunk":
        assert got.t[-1] == pytest.approx(chunk, rel=1e-12)
    if case.startswith("budget"):
        assert got.budget_exceeded
        assert got.status is ode.Status.STEP_FAILURE
    else:
        assert not got.budget_exceeded
    if case == "budget_after_last_chunk":
        assert got.t[-1] == u / spec.epsilon


def test_replaced_callables_reach_the_fast_time_runs():
    # A spec or bundle made by dataclasses.replace from a built-in one runs
    # its new f and fbar: the fast-time runs keep no copy of the old ones.
    example, preset = ab.figure_preset("3e")
    spec = example.make_system(preset.i0, preset.eps)
    counts = {"f": 0, "fbar": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped
    spec = dataclasses.replace(spec, f=counted("f", spec.f))
    aux = dataclasses.replace(example.aux, fbar=counted("fbar", example.aux.fbar))
    avg = ab.run_averaged(spec, aux, preset.u)
    assert counts["fbar"] == avg.stats.rhs_evals > 0
    counts.update(f=0, fbar=0)
    dtraj = ab.run_direct(spec, aux, avg, preset.u)
    assert dtraj.status is ode.Status.COMPLETED
    assert counts["f"] == dtraj.traj.stats.rhs_evals > 0
    assert counts["fbar"] > 0


def test_slow_samples_are_reused_within_a_step(monkeypatch):
    # The last two stages of a step run at t + h, and so does the stop
    # check after it: J(eps*t) is read and fbar called once there.  A later
    # chunk starts at the time its predecessor ended on.  The right-hand
    # side reads J inline from the averaged cubic's coefficient rows, c0[k]
    # once per action and read, so the reads are counted on those rows.
    spec, aux, _ = toy_linear_decay()
    avg = ab.run_averaged(spec, aux, 5.0)
    counts = {"fbar": 0, "j": 0, "f": 0}

    def counted(name, fn):
        def wrapped(*args):
            counts[name] += 1
            return fn(*args)
        return wrapped

    class CountedRow(list):
        def __getitem__(self, k):
            counts["j"] += 1
            return list.__getitem__(self, k)

    init = ode.CubicSampler.__init__

    def counted_init(self, traj):
        init(self, traj)
        self._c0 = [CountedRow(row) for row in self._c0]
    aux = dataclasses.replace(aux, fbar=counted("fbar", aux.fbar))
    spec = dataclasses.replace(spec, f=counted("f", spec.f))
    counts["f"] = 0    # the spec calls f once, at i0
    monkeypatch.setattr(ode.CubicSampler, "__init__", counted_init)
    dtraj = ab.run_direct(spec, aux, avg, 5.0)
    assert dtraj.status is ode.Status.COMPLETED
    stats = dtraj.traj.stats
    attempts = stats.accepted + stats.rejected
    starts = direct._BUDGET_CHUNKS + 1
    assert counts["f"] == stats.rhs_evals == 6 * attempts + starts
    assert counts["fbar"] <= 5 * attempts + starts
    assert counts["j"] <= 5 * attempts + starts
    assert counts["fbar"] >= 5 * stats.accepted
    assert counts["j"] >= 5 * stats.accepted


@pytest.mark.parametrize("d", [1, 2, 3])
def test_inline_reading_equals_the_cursor_sampler(d):
    # With eps = 1 (tau = t), f returning the actions, fbar zeros and
    # y = 0, the right-hand side's first d values are J(t), and the stop
    # predicate hands in_domain J(t).  Both equal CubicSampler.into, fed the
    # same queries clamped at tau_max, bit for bit: at every averaged node
    # and midpoint, forward and backward as rejected steps go, in a
    # shuffled order, and at and past tau_max.
    spec, aux, _ = toy_linear_decay(d=d)
    spec = dataclasses.replace(spec, i0=np.linspace(1.0, 2.0, d))
    avg = ab.run_averaged(spec, aux, 5.0)
    seen = []

    def in_domain(i):
        seen.append(list(i))
        return True
    spec = dataclasses.replace(spec, epsilon=1.0, f=lambda i, th: list(i),
                               in_domain=in_domain)
    aux = dataclasses.replace(aux, fbar=lambda i: [0.0] * d)
    rhs, stop = direct._direct_functions(spec, aux, avg, ode.DEFAULT_RTOL,
                                         ode.DEFAULT_ATOL)[:2]
    ref = ode.CubicSampler(avg)
    tau_max = avg.t_final
    nodes = avg.times.tolist()
    mids = (0.5 * (avg.times[1:] + avg.times[:-1])).tolist()
    forward = [t for pair in zip(nodes, mids) for t in pair] + nodes[-1:]
    queries = (forward + forward[::-1]
               + np.random.default_rng(3).permutation(forward).tolist()
               + [mids[2], nodes[2], mids[1], nodes[3], nodes[1]]
               + [tau_max, tau_max + 0.25, 2.0 * tau_max, tau_max])
    assert len(avg.times) > 10
    zeros = [0.0] * (d + 1)
    for n, t in enumerate(queries):
        want = [0.0] * d
        ref.into(min(t, tau_max), want, d)
        if n % 2:
            assert not stop(t, zeros)
            got = seen.pop()
        else:
            got = rhs(t, zeros)[:d]
        assert got == want, (n, t)


def test_initial_angle_rate_is_unperturbed_frequency(resonant_run):
    spec, _, _, dtraj = resonant_run
    # omega(I0) = 2 for the resonant system started at I0 = 2
    t1 = dtraj.t[1]
    assert dtraj.theta[1] / t1 == pytest.approx(2.0, rel=1e-3)


def test_angle_kept_unreduced(resonant_run):
    _, _, _, dtraj = resonant_run
    assert dtraj.theta.max() > 2 * math.pi


def test_error_starts_at_zero_and_stays_bounded(resonant_run):
    _, est, _, dtraj = resonant_run
    assert dtraj.abs_l[0] == 0.0
    assert dtraj.abs_l.max() < est.n.max() + 1.0
    # |L| has no grid-to-grid jumps (continuity at the sampling scale)
    jumps = np.abs(np.diff(dtraj.abs_l))
    assert jumps.max() < 0.2


def test_consistency_with_unscaled_system(resonant):
    # Independent oracle: integrate the perturbed system itself and form
    # (I(t) - J(eps t))/eps.  Tolerances are amplified by 1/eps when the
    # action error is rescaled, hence the comparison threshold.
    eps, u, rtol, atol = 1e-2, 1.0, 1e-9, 1e-12
    spec = resonant.make_system([2.0], eps)
    avg = ab.run_averaged(spec, resonant.aux, u, rtol=rtol / 10, atol=atol / 10)
    dtraj = ab.run_direct(spec, resonant.aux, avg, u, rtol=rtol, atol=atol)

    def pert_rhs(t, y):
        i, th = y[:1], y[1]
        out = np.empty(2)
        out[0] = eps * spec.f(i, th)[0]
        out[1] = spec.omega(i) + eps * spec.g(i, th)
        return out

    problem = ode.IvpProblem(pert_rhs, 0.0, np.array([2.0, 0.0]), u / eps)
    raw = ode.integrate(problem, rtol=rtol, atol=atol)
    ts = raw.times[::7]
    l_oracle = (raw.states[::7, 0] - avg.sample_many(eps * ts)[:, 0]) / eps
    l_num = dtraj.traj.sample_many(ts)[:, :dtraj.d]
    worst = np.max(np.abs(l_num[:, 0] - l_oracle))
    i_max = float(np.max(np.abs(raw.states[:, 0])))
    assert worst < 10.0 * (rtol * i_max + atol) / eps


def test_requires_spanning_average_trajectory(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    avg = ab.run_averaged(spec, resonant.aux, 0.5)
    with pytest.raises(ValueError):
        ab.run_direct(spec, resonant.aux, avg, 1.0)


def test_domain_exit_stops_run():
    # Large-amplitude oscillation in the actions pushes I = J + eps*L out of
    # the domain while J itself stays inside.
    aux = ab.AuxiliaryBundle(
        fbar=lambda i: np.zeros(1),
        dfbar=lambda i: np.zeros((1, 1)),
        s=lambda i, th: np.array([100.0 * math.sin(th)]),
        v=lambda i, th: np.zeros(1),
        p=lambda i, th: np.zeros(1),
        pbar=lambda i: np.zeros(1),
        q=lambda i, th: np.zeros(1),
        w=lambda i, th: np.zeros(1),
        u=lambda i, th: np.zeros(1),
        m_script=lambda i: np.zeros((1, 1)),
        g_script=lambda i, di: np.zeros((1, 1)),
        h_script=lambda i, di: np.zeros((1, 1, 1)),
    )
    spec = ab.SystemSpec(
        d=1, epsilon=1e-2,
        omega=lambda i: 1.0,
        f=lambda i, th: np.array([100.0 * math.cos(th)]),
        g=lambda i, th: 0.0,
        in_domain=lambda i: bool(i[0] > 0.0),
        i0=np.array([0.5]),
    )
    avg = ab.run_averaged(spec, aux, 1.0)
    dtraj = ab.run_direct(spec, aux, avg, 1.0)
    assert dtraj.status is ode.Status.STOPPED
    assert not dtraj.budget_exceeded
    # the run ends where the actions reach the boundary
    t_stop = dtraj.t[-1]
    i_stop = avg.sample_many([1e-2 * t_stop])[0, 0] + 1e-2 * dtraj.l[-1, 0]
    assert abs(i_stop) < 1e-6


def test_budget_abort_keeps_partial_run(resonant):
    spec = resonant.make_system([2.0], 1e-2)
    avg = ab.run_averaged(spec, resonant.aux, 10.0)
    dtraj = ab.run_direct(spec, resonant.aux, avg, 10.0, time_budget=1e-9)
    assert dtraj.budget_exceeded
    assert dtraj.status is ode.Status.STEP_FAILURE
    assert 0 < dtraj.t[-1] < 10.0 / 1e-2
    assert dtraj.wall_time_s > 0.0


def _synthetic_direct(ts, l_vals):
    states = np.column_stack([l_vals, np.zeros_like(ts)])
    derivs = np.zeros_like(states)
    traj = ode.Trajectory(times=ts, states=states, derivs=derivs,
                          status=ode.Status.COMPLETED)
    return DirectTrajectory(d=1, eps=1e-2, traj=traj, budget_exceeded=False,
                            wall_time_s=0.0)


def test_envelope_of_constant_magnitude():
    ts = np.linspace(0.0, 1000.0, 2001)
    dtraj = _synthetic_direct(ts, np.full_like(ts, 0.7))
    peaks = envelope(dtraj, window=1.0)
    assert all(peak == pytest.approx(0.7) for _, peak in peaks)


def test_envelope_of_sine_with_wide_window():
    ts = np.linspace(0.0, 5000.0, 50001)
    dtraj = _synthetic_direct(ts, np.sin(ts))
    peaks = envelope(dtraj, window=10.0)     # covers many 2*pi periods
    assert all(peak == pytest.approx(1.0, abs=1e-3) for _, peak in peaks)


def test_envelope_passes_over_nan():
    # One NaN |L| leaves its window's finite peak; an all-NaN window
    # reports NaN at its first time.
    ts = np.linspace(0.0, 1000.0, 20001)
    l_vals = np.sin(ts)
    l_vals[100] = math.nan
    dtraj = _synthetic_direct(ts, l_vals)
    tau, peak = envelope(dtraj, window=0.2)[0]
    assert peak == pytest.approx(1.0, abs=1e-3)
    assert abs(math.sin(tau / dtraj.eps)) == peak
    l_vals[:400] = math.nan          # the first window, t < 20
    peaks = envelope(_synthetic_direct(ts, l_vals), window=0.2)
    assert peaks[0][0] == 0.0 and math.isnan(peaks[0][1])
    assert peaks[1][1] == pytest.approx(1.0, abs=1e-3)


def test_envelope_rejects_bad_window(resonant_run):
    _, _, _, dtraj = resonant_run
    with pytest.raises(ValueError):
        envelope(dtraj, 0.0)
    # a window index past the int64 range is refused, not cast to garbage
    for window in (1e-20, 1e-300):
        with pytest.raises(ValueError, match="window index overflows"):
            envelope(dtraj, window)


@pytest.mark.parametrize("seed", range(8))
def test_envelope_matches_the_mask_reference(seed):
    # Seeded grids with NaN |L|, ties (equal |L| of either sign), nodes on
    # window edges and one on the right end of the span, at windows from
    # below the node spacing to beyond the span: the same pairs bit for
    # bit as the mask over the whole grid per window.
    rng = np.random.default_rng(seed)
    inner = rng.uniform(0.0, 100.0, int(rng.integers(0, 600)))
    edges = 12.5 * rng.integers(1, 8, 3)         # on edges of 1/8 windows
    ts = np.unique(np.concatenate([[0.0, 100.0], inner, edges]))
    l_vals = rng.choice([-1.0, -0.5, 0.5, 1.0], ts.size)
    drawn = rng.random(ts.size) < 0.5
    l_vals[drawn] = rng.standard_normal(int(drawn.sum()))
    l_vals[rng.random(ts.size) < 0.15] = math.nan
    dtraj = _synthetic_direct(ts, l_vals)
    span = dtraj.eps * ts[-1]                     # 1.0
    spacing = dtraj.eps * np.diff(ts).min()
    for window in (spacing / 3, spacing, 1e-3, 1 / 64, 0.125, 0.3, span,
                   3 * span):
        got = envelope(dtraj, window)
        want = envelope_reference(dtraj, window)
        assert np.array(got).tobytes() == np.array(want).tobytes()
