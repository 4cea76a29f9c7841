"""Dense layers, losses, Adam, and the gradient checker."""
import dataclasses
import multiprocessing
import os
import sys
import traceback
import tracemalloc
from concurrent.futures import ThreadPoolExecutor

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays
from scipy.special import erf

from llrseg import neuralcore
from llrseg.datamodel import IGNORE
from llrseg.errors import AllIgnored, NonFiniteGradient, StaleTape
from llrseg.neuralcore import (
    DenseLayer,
    Mlp,
    OptimizerState,
    Tape,
    _gelu_slope_rows,
    _row_blocks,
    _rows_per_block,
    grad_check,
    make_mlp,
    mlp_backward,
    mlp_forward,
    optimizer_step,
    sigmoid_bce_with_logits,
    softmax_cross_entropy,
    xavier_dense,
)


class TestForward:
    def test_identity_layer_passes_through(self):
        m = Mlp([DenseLayer(weight=np.eye(3), bias=np.zeros(3))])
        x = np.random.default_rng(0).normal(0, 1, (5, 3))
        y, _ = mlp_forward(m, x)
        assert np.array_equal(y, x)

    def test_two_layer_matches_naive_gelu_then_identity(self):
        rng = np.random.default_rng(1)
        m = make_mlp([3, 5, 2], rng)
        x = rng.normal(0, 1, (7, 3))
        w0, b0 = m.layers[0].weight, m.layers[0].bias
        w1, b1 = m.layers[1].weight, m.layers[1].bias
        pre = x @ w0.T + b0
        want = (0.5 * pre * (1.0 + erf(pre / np.sqrt(2.0)))) @ w1.T + b1
        y, _ = mlp_forward(m, x)
        assert np.allclose(y, want, atol=1e-12)

    def test_forward_is_pure(self):
        rng = np.random.default_rng(2)
        m = make_mlp([4, 6, 3], rng)
        x = rng.normal(0, 1, (5, 4))
        a, _ = mlp_forward(m, x)
        b, _ = mlp_forward(m, x)
        assert np.array_equal(a, b)


class TestTensors:
    def test_names_and_round_trip(self):
        rng = np.random.default_rng(14)
        m = make_mlp([4, 6, 5, 3], rng)
        tensors = m.tensors()
        assert list(tensors) == ["0.weight", "0.bias", "1.weight", "1.bias",
                                 "2.weight", "2.bias"]
        rebuilt = Mlp.from_tensors(tensors)
        assert len(rebuilt.layers) == Mlp.depth(tensors) == 3
        x = rng.normal(0, 1, (7, 4))
        assert mlp_forward(rebuilt, x)[0].tobytes() == mlp_forward(m, x)[0].tobytes()

    def test_depth_is_the_last_layer_named(self):
        tensors = make_mlp([3, 4, 4, 2], np.random.default_rng(20)).tensors()
        assert Mlp.depth({}) == 1
        assert Mlp.depth({"2.bias": None, "x.weight": None}) == 3
        del tensors["2.weight"], tensors["2.bias"]
        assert Mlp.depth(tensors) == 2
        assert len(Mlp.from_tensors(tensors).layers) == 2

    @pytest.mark.parametrize("names", [["0.bias"], ["1.weight"], ["1.bias"],
                                       ["1.weight", "1.bias"], ["0.weight", "0.bias"]])
    def test_missing_tensor_is_a_key_error(self, names):
        """A layer below the last one named is missing, not the net's end."""
        tensors = make_mlp([3, 4, 4, 2], np.random.default_rng(15)).tensors()
        for name in names:
            del tensors[name]
        with pytest.raises(KeyError, match=names[0]):
            Mlp.from_tensors(tensors)

    def test_fields_cannot_be_assigned(self):
        m = make_mlp([3, 4, 2], np.random.default_rng(16))
        layer = m.layers[0]
        for field in ("weight", "bias"):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(layer, field, getattr(layer, field))
        with pytest.raises(dataclasses.FrozenInstanceError):
            m.layers = m.layers[:1]


class TestBackward:
    def test_zero_upstream_gives_zero_grads(self):
        rng = np.random.default_rng(3)
        m = make_mlp([3, 4, 2], rng)
        x = rng.normal(0, 1, (6, 3))
        _, tape = mlp_forward(m, x)
        grads = mlp_backward(m, tape, np.zeros((6, 2)))
        assert set(grads) == set(m.tensors())
        for g in grads.values():
            assert np.all(g == 0)

    def test_linear_sum_loss_closed_form(self):
        m = Mlp([DenseLayer(weight=np.ones((2, 3)), bias=np.zeros(2))])
        rng = np.random.default_rng(4)
        x = rng.normal(0, 1, (5, 3))
        _, tape = mlp_forward(m, x)
        grads = mlp_backward(m, tape, np.ones((5, 2)))
        dw, db = grads["0.weight"], grads["0.bias"]
        assert np.allclose(dw, np.tile(x.sum(axis=0), (2, 1)), atol=1e-12)
        assert np.allclose(db, 5.0, atol=1e-12)

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(5)
        m = make_mlp([3, 5, 2], rng)
        x = rng.normal(0, 1, (8, 3))
        coeff = rng.normal(0, 1, (8, 2))

        def fn(params):
            net = Mlp.from_tensors(params)
            y, tape = mlp_forward(net, x)
            grads = mlp_backward(net, tape, coeff)
            return float((y * coeff).sum()), grads

        params = {k: v.copy() for k, v in m.tensors().items()}
        assert grad_check(fn, params, seed=0) < 1e-6

    def test_stale_tape_rejected(self):
        rng = np.random.default_rng(6)
        m = make_mlp([3, 4, 2], rng)
        other = make_mlp([3, 6, 2], rng)
        _, tape = mlp_forward(m, rng.normal(0, 1, (4, 3)))
        with pytest.raises(StaleTape):
            mlp_backward(other, tape, np.zeros((4, 2)))


# signed zeros, subnormals, the smallest normal, the tails where GELU and its
# derivative round to 0 or x, and typical pre-activations
GELU_VALUES = st.one_of(
    st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e-310, -1e-310,
                     2.2250738585072014e-308, -2.2250738585072014e-308,
                     40.0, -40.0, 38.5, -38.5]),
    st.floats(-40.0, 40.0),
    st.floats(-3.0, 3.0),
)


def bitwise_equal(a, b):
    return a.shape == b.shape and np.array_equal(a.view(np.int64), b.view(np.int64))


class TestGeluTape:
    @settings(max_examples=200, deadline=None)
    @given(data=st.data(), shape=st.tuples(st.integers(1, 6), st.integers(1, 5)))
    def test_bitwise_equal_to_textbook_formulas(self, data, shape):
        x = data.draw(arrays(np.float64, shape, elements=GELU_VALUES))
        d = data.draw(arrays(np.float64, shape, elements=GELU_VALUES))
        cdf = 0.5 * (1.0 + erf(x / np.sqrt(2.0)))
        pdf = (1.0 / np.sqrt(2.0 * np.pi)) * np.exp(-0.5 * x**2)
        slope, out = x.copy(), np.empty_like(x)
        _gelu_slope_rows(slope, out)
        assert bitwise_equal(out, 0.5 * x * (1.0 + erf(x / np.sqrt(2.0))))
        assert bitwise_equal(d * slope, d * (cdf + x * pdf))

    def test_erf_runs_once_per_gelu_layer_and_never_backward(self, monkeypatch):
        calls = []

        def counting_erf(*args, **kwargs):
            calls.append(1)
            return erf(*args, **kwargs)

        monkeypatch.setattr("llrseg.neuralcore.erf", counting_erf)
        rng = np.random.default_rng(11)
        m = make_mlp([3, 7, 5, 2], rng)  # two GELU layers, identity output
        _, tape = mlp_forward(m, rng.normal(0, 1, (6, 3)))
        assert len(calls) == 2
        mlp_backward(m, tape, rng.normal(0, 1, (6, 2)))
        assert len(calls) == 2



def whole_array_gelu(pre):
    """The unblocked GELU: (activation, gate)."""
    gate = np.divide(pre, np.sqrt(2.0))
    erf(gate, out=gate)
    gate += 1.0
    out = 0.5 * pre
    out *= gate
    return out, gate


def whole_array_d_pre(pre, gate, d):
    d_pre = np.square(pre)
    d_pre *= -0.5
    np.exp(d_pre, out=d_pre)
    d_pre *= 1.0 / np.sqrt(2.0 * np.pi)
    d_pre *= pre
    d_pre += 0.5 * gate
    d_pre *= d
    return d_pre


# rows per GELU block of the decoder's 1152-wide hidden layer
B = _rows_per_block(1152)
BLOCK_EDGE_ROWS = [1, 2, B - 1, B, B + 1, 3 * B + 1]


class TestBlockedActivations:
    """GELU and its derivative run in row blocks, and a forward without a
    tape activates in place; every result must equal the whole-array one."""

    @staticmethod
    def net_and_input(rows):
        """Two 1152-wide GELU layers and an identity output layer."""
        rng = np.random.default_rng(rows)
        m = make_mlp([5, 1152, 1152, 4], rng)
        return m, rng.normal(0, 2, (rows, 5)), rng.normal(0, 1, (rows, 4))

    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_forward_without_tape_equals_taped(self, rows):
        m, x, _ = self.net_and_input(rows)
        kept = x.copy()
        taped, tape = mlp_forward(m, x)
        out, no_tape = mlp_forward(m, x, tape=False)
        assert no_tape is None
        assert bitwise_equal(out, taped)
        assert bitwise_equal(x, kept)

    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_tape_and_gradients_equal_whole_array_references(self, rows):
        m, x, d_out = self.net_and_input(rows)
        inputs, pres, gates = [], [], []
        h = x
        last = len(m.layers) - 1
        for i, layer in enumerate(m.layers):
            inputs.append(h)
            pre = h @ layer.weight.T
            pre += layer.bias
            pres.append(pre)
            h, gate = (pre, None) if i == last else whole_array_gelu(pre)
            gates.append(gate)
        want_grads, d_pres, upstream, d = {}, [None] * (last + 1), [None] * (last + 1), d_out
        for i in reversed(range(last + 1)):
            upstream[i] = d
            d_pres[i] = d if i == last else whole_array_d_pre(pres[i], gates[i], d)
            want_grads[f"{i}.weight"] = d_pres[i].T @ inputs[i]
            want_grads[f"{i}.bias"] = d_pres[i].sum(axis=0)
            if i:
                d = d_pres[i] @ m.layers[i].weight

        out, tape = mlp_forward(m, x)
        assert bitwise_equal(out, h)
        assert all(bitwise_equal(got, want) for got, want in zip(tape.inputs, inputs))
        # a slope per hidden layer, times its upstream gradient that layer's d_pre
        assert len(tape.slopes) == last
        for slope, d_up, want in zip(tape.slopes, upstream, d_pres):
            assert bitwise_equal(d_up * slope, want)
        grads = mlp_backward(m, tape, d_out)
        assert grads.keys() == want_grads.keys()
        assert all(bitwise_equal(grads[name], want_grads[name]) for name in grads)


# the inlier decoder and the UEM projection at their default sizes, and the
# rows of every chunk edge of the decoder and of a 4096-row scoring batch:
# the decoder's chunks are 1024, 512 and 341 rows tall with one, two and
# three workers, and at least 64 (1087, 575, 404 and 745 end in a shorter
# tail that joins the chunk before it)
PACKAGE_NETS = [[16, 1152, 64], [16, 24, 24, 64]]
PACKAGE_ROWS = [0, 1, 2, 63, 64, 65, 340, 341, 342, 404, 511, 512, 513, 575,
                681, 682, 683, 745, 1023, 1024, 1025, 1087, 1088, 2048,
                4095, 4096, 4097, 4160]
# nets with narrow layers, whose rows keep the bits of a whole-array product
# only in tall chunks, at rows whose 64-row tail such a layer would round
# differently
NARROW_NETS = [[5, 1152, 1152, 4], [16, 1152, 64, 5], [64, 64, 2], [16, 1152, 1]]
NARROW_ROWS = [1024, 1088, 1100, 1300, 4096, 4160]


class TestForwardChunks:
    """A forward without a tape runs in row chunks; its output must equal the
    taped forward's, whose matmuls take all rows at once, bit for bit."""

    @pytest.mark.parametrize("dims", PACKAGE_NETS)
    @pytest.mark.parametrize("rows", PACKAGE_ROWS)
    def test_package_nets_equal_taped(self, monkeypatch, dims, rows):
        rng = np.random.default_rng(rows)
        m = make_mlp(dims, rng)
        data = rng.normal(0, 1, (dims[0], rows))
        # C order, and the Fortran-order view FeatureMap.pixels() returns
        for x in (np.ascontiguousarray(data.T), data.T):
            self.assert_equal_taped_on_any_workers(monkeypatch, m, x)

    # the projection's chunks are 18432, 9216 and 6144 rows tall with one,
    # two and three workers, and at least 171 (ceil(4096 / 24))
    @pytest.mark.parametrize("rows", [6143, 6144, 6145, 6314, 9215, 9216, 9217,
                                      18431, 18432, 18433, 18602])
    def test_projection_net_equals_taped_at_its_chunk_edges(self, monkeypatch, rows):
        rng = np.random.default_rng(rows)
        m = make_mlp([16, 24, 24, 64], rng)
        self.assert_equal_taped_on_any_workers(monkeypatch, m, rng.normal(0, 1, (rows, 16)))

    @staticmethod
    def assert_equal_taped_on_any_workers(monkeypatch, m, x):
        """One, two and three workers' tape-free output is the taped one,
        and x is left unwritten."""
        kept = x.copy()
        want, _ = mlp_forward(m, x)
        for workers in (1, 2, 3):
            monkeypatch.setattr(neuralcore, "_WORKERS", workers)
            assert bitwise_equal(mlp_forward(m, x, tape=False)[0], want)
        assert bitwise_equal(x, kept)

    @pytest.mark.parametrize("dims", NARROW_NETS)
    @pytest.mark.parametrize("rows", NARROW_ROWS)
    def test_narrow_nets_equal_taped(self, dims, rows):
        rng = np.random.default_rng(rows)
        m = make_mlp(dims, rng)
        x = rng.normal(0, 1, (rows, dims[0]))
        assert bitwise_equal(mlp_forward(m, x, tape=False)[0], mlp_forward(m, x)[0])

    def test_forward_without_tape_keeps_no_hidden_buffer(self):
        rng = np.random.default_rng(0)
        m = make_mlp([16, 1152, 64], rng)
        x = rng.normal(0, 1, (4096, 16))
        hidden_bytes = x.shape[0] * 1152 * 8
        tracemalloc.start()
        try:
            mlp_forward(m, x, tape=False)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # 1024 rows of the hidden layer split into a chunk per worker, a
        # block of gate per worker and the [N, 64] output; all N rows of the
        # hidden layer take 1.0x
        assert peak < 0.5 * hidden_bytes


class TestTapeReuse:
    """mlp_backward spends its tape, writing gradients over the tape's
    buffers, and a later forward refills them; nothing may differ from a
    forward and backward on a fresh tape."""

    def test_reused_tape_equals_fresh_tapes(self):
        rng = np.random.default_rng(17)
        m = make_mlp([16, 1152, 24, 5], rng)
        tape, outputs, buffers = True, [], None
        for rows in (1024, 700, 1024):  # a full batch, a shorter tail, a full one
            x = rng.normal(0, 2, (rows, 16))
            d_out = rng.normal(0, 1, (rows, 5))
            kept = x.copy(), d_out.copy()
            want, fresh = mlp_forward(m, x)
            want_grads = mlp_backward(m, fresh, d_out)
            out, tape = mlp_forward(m, x, tape=tape)
            grads = mlp_backward(m, tape, d_out)
            assert bitwise_equal(out, want)
            assert grads.keys() == want_grads.keys()
            assert all(bitwise_equal(grads[name], want_grads[name]) for name in grads)
            assert bitwise_equal(x, kept[0]) and bitwise_equal(d_out, kept[1])
            outputs.append((out, out.copy()))
            buffers = buffers or dict(tape.buffers)
        # every step wrote the first step's buffers, and none an earlier output
        assert tape.buffers.keys() == buffers.keys()
        assert all(tape.buffers[key] is buf for key, buf in buffers.items())
        assert all(bitwise_equal(out, kept) for out, kept in outputs)

    def test_a_second_backward_on_a_spent_tape_raises(self):
        rng = np.random.default_rng(18)
        m = make_mlp([3, 4, 2], rng)
        _, tape = mlp_forward(m, rng.normal(0, 1, (5, 3)))
        mlp_backward(m, tape, np.ones((5, 2)))
        with pytest.raises(StaleTape, match="spent"):
            mlp_backward(m, tape, np.ones((5, 2)))
        with pytest.raises(StaleTape, match="spent"):
            mlp_backward(m, Tape(), np.ones((5, 2)))
        _, tape = mlp_forward(m, rng.normal(0, 1, (5, 3)), tape=tape)
        mlp_backward(m, tape, np.ones((5, 2)))  # refilled, it serves again

    def test_four_reused_decoder_steps_hold_under_three_hidden_buffers(self, monkeypatch):
        # each worker holds two blocks of GELU scratch while it runs, so the
        # peak depends on the worker count; two workers run the blocks here
        monkeypatch.setattr(neuralcore, "_WORKERS", 2)
        rng = np.random.default_rng(19)
        m = make_mlp([16, 1152, 64], rng)
        xs = [rng.normal(0, 1, (1024, 16)) for _ in range(4)]
        d_out = rng.normal(0, 1, (1024, 64))
        hidden_bytes = 1024 * 1152 * 8
        tape = True
        tracemalloc.start()
        try:
            for x in xs:
                _, tape = mlp_forward(m, x, tape=tape)
                mlp_backward(m, tape, d_out)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        # the tape's slope and output buffers, 2 x 2 blocks of scratch and the
        # gradients; a tape of pre-activations, gates and outputs, taken
        # while the last step's is still alive, and a backward that allocates
        # its d_pre and d, hold 6.1 buffers
        assert peak < 3 * hidden_bytes


def brute_force_blocks(n, rows, least=2):
    """(start, stop) of each block: the full blocks of `rows`, then the rest
    of n, which joins the block before it if it is shorter than least."""
    full, rest = divmod(n, rows)
    sizes = [rows] * full + [rest] * (rest > 0)
    if 0 < rest < least and full:
        sizes[-2:] = [rows + rest]
    stops = np.cumsum(sizes, dtype=int).tolist()
    return list(zip([0] + stops[:-1], stops))


class TestRowBlocks:
    @pytest.mark.parametrize("rows", range(1, 10))
    def test_blocks_cover_the_rows_once_and_leave_no_row_alone(self, rows):
        for n in range(41):
            blocks = _row_blocks(n, rows)
            spans = [(block.start, block.stop) for block in blocks]
            assert all(block.step is None and stop > start
                       for block, (start, stop) in zip(blocks, spans))
            assert [i for start, stop in spans for i in range(start, stop)] == list(range(n))
            assert all(stop - start == rows for start, stop in spans[:-1])
            if n != 1 and rows != 1:
                assert all(stop - start > 1 for start, stop in spans)
            assert spans == brute_force_blocks(n, rows)

    @pytest.mark.parametrize("rows", range(2, 10))
    def test_a_tail_shorter_than_least_joins_the_block_before_it(self, rows):
        for least in range(2, rows + 1):
            for n in range(rows, 41):
                spans = [(block.start, block.stop) for block in _row_blocks(n, rows, least)]
                assert all(stop - start >= least for start, stop in spans)
                assert spans == brute_force_blocks(n, rows, least)


class TestRowBlocksOnWorkers:
    """GELU's row blocks run on a worker per CPU; no result may depend on
    how many workers run them."""

    @staticmethod
    def gelu_results(m, x, d_out):
        """Every array a forward and backward through m computes: the tape's
        hidden inputs and slopes, and what the backward writes over them."""
        out, tape = mlp_forward(m, x)
        free, _ = mlp_forward(m, x, tape=False)
        taped = [a.copy() for a in tape.inputs[1:] + tape.slopes]
        grads = mlp_backward(m, tape, d_out)
        return [out, free, *taped, *tape.inputs[1:], *tape.slopes,
                *grads.values()]

    @pytest.mark.parametrize("workers", [2, 3])
    @pytest.mark.parametrize("rows", BLOCK_EDGE_ROWS)
    def test_inline_equals_pooled(self, monkeypatch, workers, rows):
        m, x, d_out = TestBlockedActivations.net_and_input(rows)
        kept = x.copy()
        monkeypatch.setattr(neuralcore, "_WORKERS", workers)
        pooled = self.gelu_results(m, x, d_out)
        monkeypatch.setattr(neuralcore, "_WORKERS", 1)
        inline = self.gelu_results(m, x, d_out)
        assert len(pooled) == len(inline) == 16  # two GELU layers, three in all
        assert all(bitwise_equal(a, b) for a, b in zip(pooled, inline))
        assert bitwise_equal(x, kept)

    @staticmethod
    def in_forked_child(scenario, timeout=60):
        """Runs scenario() in a forked child, which reports by its exit code:
        0 if it returned, 1 if it raised (its traceback goes to stderr). A
        child still running after `timeout` seconds is killed and the test
        fails, so a worker that never ends dies with the child instead of
        holding this process at interpreter exit."""
        def child():
            try:
                scenario()
            except Exception:
                traceback.print_exc()
                os._exit(1)
            os._exit(0)

        proc = multiprocessing.get_context("fork").Process(target=child)
        proc.start()
        proc.join(timeout)
        if proc.exitcode is None:
            proc.kill()
            proc.join()
            pytest.fail(f"the scenario did not end within {timeout} s")
        assert proc.exitcode == 0, "the scenario failed in the child (see stderr)"

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_every_block_runs_once_with_more_workers_than_cpus(self):
        workers = 4 * len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else 8

        def scenario():
            # the child's own pool and settings, gone with the child
            neuralcore._WORKERS = workers
            neuralcore._POOL = ThreadPoolExecutor(workers)
            seen = []

            def record(rows):
                np.sqrt(np.arange(1000.0))  # gives the GIL up
                seen.append(rows.start)

            sys.setswitchinterval(1e-6)
            neuralcore._run_blocks(record, neuralcore._row_blocks(5000, 7))
            assert sorted(seen) == list(range(0, 5000, 7))

        self.in_forked_child(scenario)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_an_exception_in_a_chunk_reaches_the_caller(self):
        # the second GELU block raises on whichever worker runs it; its task
        # ends holding a chunk's buffers, which must not stall the other task
        # nor the next forward
        def scenario():
            neuralcore._WORKERS = 2
            neuralcore._POOL = ThreadPoolExecutor(2)
            rng = np.random.default_rng(20)
            m = make_mlp([16, 1152, 64], rng)
            x = rng.normal(0, 1, (4096, 16))
            want, _ = mlp_forward(m, x)
            gelu_rows, calls = neuralcore._gelu_rows, []

            def second_call_fails(*args):
                calls.append(None)
                if len(calls) == 2:
                    raise RuntimeError("a chunk failed")
                gelu_rows(*args)

            neuralcore._gelu_rows = second_call_fails
            outcomes = []
            for _ in range(2):
                try:
                    outcomes.append(mlp_forward(m, x, tape=False)[0])
                except RuntimeError as error:
                    outcomes.append(error)
            assert len(outcomes) == 2
            assert isinstance(outcomes[0], RuntimeError) and str(outcomes[0]) == "a chunk failed"
            assert bitwise_equal(outcomes[1], want)

        self.in_forked_child(scenario)

    @pytest.mark.skipif(not hasattr(os, "fork"), reason="needs fork")
    def test_a_forked_child_runs_blocks_on_workers_of_its_own(self, monkeypatch):
        monkeypatch.setattr(neuralcore, "_WORKERS", 2)
        m, x, _ = TestBlockedActivations.net_and_input(3 * B + 1)
        want, _ = mlp_forward(m, x, tape=False)  # the parent's workers are running

        def scenario():
            got, _ = mlp_forward(m, x, tape=False)
            assert bitwise_equal(got, want)

        self.in_forked_child(scenario)

    @pytest.mark.parametrize("tape", [True, False])
    def test_exception_in_a_block_reaches_the_caller(self, monkeypatch, tape):
        calls = []

        def failing_erf(*args, **kwargs):
            calls.append(1)
            if len(calls) == 3:
                raise FloatingPointError("block 3")
            return erf(*args, **kwargs)

        m, x, _ = TestBlockedActivations.net_and_input(3 * B + 1)
        kept = x.copy()
        monkeypatch.setattr(neuralcore, "erf", failing_erf)
        with pytest.raises(FloatingPointError, match="block 3"):
            mlp_forward(m, x, tape=tape)
        assert bitwise_equal(x, kept)


class TestSoftmaxCrossEntropy:
    def test_uniform_logits(self):
        loss, _ = softmax_cross_entropy(np.zeros((6, 4)), np.zeros(6, dtype=int))
        assert loss == pytest.approx(np.log(4), abs=1e-12)

    def test_saturated_correct_logit(self):
        logits = np.zeros((3, 4))
        logits[:, 1] = 50.0
        loss, _ = softmax_cross_entropy(logits, np.full(3, 1))
        assert loss < 1e-10

    def test_matches_direct_formula(self):
        rng = np.random.default_rng(7)
        logits = rng.normal(0, 3, (10, 5))
        labels = rng.integers(0, 5, 10)
        loss, _ = softmax_cross_entropy(logits, labels)
        want = np.longdouble(0.0)
        for row, lab in zip(logits.astype(np.longdouble), labels):
            want += -(row[lab] - np.log(np.exp(row).sum()))
        assert loss == pytest.approx(float(want / 10), abs=1e-10)

    def test_ignored_rows_equal_deleted_rows(self):
        rng = np.random.default_rng(8)
        logits = rng.normal(0, 1, (10, 3))
        labels = rng.integers(0, 3, 10)
        labels[[2, 5]] = IGNORE
        loss_a, grad_a = softmax_cross_entropy(logits, labels)
        keep = labels != IGNORE
        loss_b, grad_b = softmax_cross_entropy(logits[keep], labels[keep])
        assert loss_a == pytest.approx(loss_b, abs=1e-14)
        assert np.allclose(grad_a[keep], grad_b, atol=1e-14)
        assert np.all(grad_a[~keep] == 0)

    def test_all_ignored(self):
        with pytest.raises(AllIgnored):
            softmax_cross_entropy(np.zeros((3, 2)), np.full(3, IGNORE))


class TestSigmoidBce:
    def test_indifferent_logit(self):
        loss, _ = sigmoid_bce_with_logits(np.zeros(4), np.ones(4, dtype=int))
        assert loss == pytest.approx(np.log(2), abs=1e-12)

    def test_large_logit_no_overflow(self):
        with np.errstate(over="raise"):
            loss, dz = sigmoid_bce_with_logits(np.array([40.0]), np.array([1]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(dz).all()

    def test_very_negative_logit_gradient_finite(self):
        with np.errstate(over="raise"):
            loss, dz = sigmoid_bce_with_logits(np.array([-500.0]), np.array([0]))
        assert loss == pytest.approx(0.0, abs=1e-12)
        assert np.isfinite(dz).all()

    def test_matches_naive_oracle(self):
        rng = np.random.default_rng(9)
        z = rng.normal(0, 2, 20)
        t = rng.integers(0, 2, 20)
        loss, _ = sigmoid_bce_with_logits(z, t)
        sig = 1.0 / (1.0 + np.exp(-z.astype(np.longdouble)))
        want = (-t * np.log(sig) - (1 - t) * np.log1p(-sig)).mean()
        assert loss == pytest.approx(float(want), abs=1e-10)

    def test_ignored_entries_excluded(self):
        z = np.array([0.5, -1.0, 2.0])
        t = np.array([1, IGNORE, 0])
        loss_a, grad_a = sigmoid_bce_with_logits(z, t)
        loss_b, _ = sigmoid_bce_with_logits(z[[0, 2]], t[[0, 2]])
        assert loss_a == pytest.approx(loss_b, abs=1e-14)
        assert grad_a[1] == 0.0


class TestOptimizers:
    def test_adam_zero_gradient_is_identity(self):
        opt = OptimizerState(lr=0.1)
        p0 = np.array([1.0, -2.0])
        _, params = optimizer_step(opt, {"p": p0.copy()}, {"p": np.zeros(2)})
        assert np.array_equal(params["p"], p0)

    def test_adam_matches_hand_stepped_reference(self):
        lr, b1, b2, eps = 1e-3, 0.9, 0.999, 1e-8
        opt = OptimizerState(lr=lr)
        params = {"p": np.array([2.0])}
        m = v = 0.0
        ref = 2.0
        for t in range(1, 4):
            g = 2.0 * ref  # gradient of ref**2
            m = b1 * m + (1 - b1) * g
            v = b2 * v + (1 - b2) * g * g
            ref -= lr * (m / (1 - b1**t)) / (np.sqrt(v / (1 - b2**t)) + eps)
            grad = {"p": np.array([2.0 * params["p"][0]])}
            opt, params = optimizer_step(opt, params, grad)
        assert params["p"][0] == pytest.approx(ref, abs=1e-12)

    def test_non_finite_gradient_rejected(self):
        opt = OptimizerState(lr=0.1)
        with pytest.raises(NonFiniteGradient) as exc:
            optimizer_step(opt, {"p": np.zeros(1)}, {"p": np.array([np.nan])})
        assert exc.value.tensor_name == "p"


class TestGradCheck:
    def test_linear_function(self):
        coeff = np.array([1.0, -2.0, 3.0])

        def fn(params):
            return float(params["w"] @ coeff), {"w": coeff.copy()}

        assert grad_check(fn, {"w": np.zeros(3)}) < 1e-10

    def test_detects_wrong_gradient(self):
        coeff = np.array([1.0, -2.0, 3.0])

        def fn(params):
            return float(params["w"] @ coeff), {"w": 2.0 * coeff}

        err = grad_check(fn, {"w": np.zeros(3)})
        assert err > 0.4

    def test_composite_mlp_bce(self):
        rng = np.random.default_rng(10)
        m = make_mlp([4, 6, 1], rng)
        x = rng.normal(0, 1, (12, 4))
        t = rng.integers(0, 2, 12)

        def fn(params):
            net = Mlp.from_tensors(params)
            out, tape = mlp_forward(net, x)
            loss, dz = sigmoid_bce_with_logits(out[:, 0], t)
            grads = mlp_backward(net, tape, dz[:, None])
            return loss, grads

        params = {k: v.copy() for k, v in m.tensors().items()}
        assert grad_check(fn, params, seed=1) < 1e-4
