"""Each random stream is drawn once, beside work that does not need it, and
no bit moves: ``sweep --mc`` draws the "mi" stream once per (b, alpha) for
every SNR of its list, and ``simulate`` draws the noise on a helper thread
while the inputs are drawn.  The helper fills buffers the calling thread
allocated, and none outlives its call.  Both run on ``simulate._run``, the
one helper-thread runner, whose order, error and CPU-count rules are
checked here on their own."""

import functools
import io
import json
import random
import sys
import threading
import tracemalloc

import numpy as np
import pytest

import fadelab as fl
from fadelab import mi, simulate, spectra
from fadelab.cli import run
from fadelab.errors import EmbeddingFailure

LINE = ["line", "--mass", "0.3", "--loc", "0", "--residual", "bandlimited", "--lambda-c", "0.1"]
AR1 = ["ar1", "--a", "0.9"]


def pin_cpus(monkeypatch, count):
    """The one CPU count behind every helper thread and trace writer."""
    monkeypatch.setattr(simulate.os, "sched_getaffinity", lambda pid: set(range(count)))


def report(argv, capsys):
    assert run(argv) == 0
    return capsys.readouterr().out


@functools.cache
def per_point(b, alpha, snr, samples, seed):
    """``mi_monte_carlo`` at one sweep point of ar1(0.7), A = 1."""
    scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=alpha, block_length=b)
    return fl.mi_monte_carlo(scheme, fl.ar1(0.7), 1.0 / snr, samples, seed)


class TestSweep:
    @pytest.mark.parametrize("snrs", [[0.25], [0.1, 0.4], [0.05, 0.1, 0.25, 0.4, 1.5]],
                             ids=lambda s: f"{len(s)}snr")
    @pytest.mark.parametrize("count", [1, 2, 3])
    def test_rows_are_the_per_point_estimates(self, monkeypatch, capsys, snrs, count):
        pin_cpus(monkeypatch, count)
        b_list, alpha, samples, seed = (1, 3, 12), 0.4, 10_000, 6
        doc = json.loads(report(
            ["sweep", "--model", "ar1", "--a", "0.7", "--mc", "--format", "json",
             "--b-list", ",".join(map(str, b_list)), "--alpha-list", repr(alpha),
             "--snr-list", ",".join(map(repr, snrs)),
             "--samples", str(samples), "--seed", str(seed)], capsys))
        rows = iter(doc["rows"])
        for b in b_list:
            for snr in snrs:
                row, est = next(rows), per_point(b, alpha, snr, samples, seed)
                assert (row["b"], row["alpha"], row["snr"]) == (b, alpha, snr)
                assert row["mi_estimate"].hex() == (est.estimate / b).hex()
                assert row["mi_stderr"].hex() == (est.std_error / b).hex()

    @pytest.mark.parametrize("alpha", [5 / 6, 1.0])
    def test_many_is_each_single_call(self, alpha):
        # several batches per variance, and a variance given twice
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=alpha, block_length=2)
        sigma2s = [10.0, 0.5, 10.0, 3.0]
        many = fl.mi_monte_carlo_many(scheme, fl.bandlimited(0.25), sigma2s, 200_000, 3)
        for sigma2, got in zip(sigma2s, many):
            assert got == fl.mi_monte_carlo(scheme, fl.bandlimited(0.25), sigma2, 200_000, 3)

    def test_a_refused_variance_draws_nothing(self, monkeypatch):
        drawn = []
        monkeypatch.setattr(mi, "rng_stream", lambda *args: drawn.append(args))
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=0.5, block_length=2)
        with pytest.raises(fl.DomainError):
            fl.mi_monte_carlo_many(scheme, fl.ar1(0.5), [1.0, 0.0], 10_000, 1)
        assert drawn == []


class TestSimulate:
    @pytest.mark.parametrize("law", [AR1, LINE], ids=["ar1_0.9", "line"])
    def test_trace_is_the_same_at_every_cpu_count(self, monkeypatch, tmp_path, law):
        argv = ["simulate", "--model", *law, "--n", "150000", "--seed", "5",
                "--b", "3", "--alpha", "0.6", "--sigma2", "0.7"]
        traces = {}
        for count in (1, None, 3):
            with monkeypatch.context() as mp:
                if count is not None:
                    pin_cpus(mp, count)
                out = tmp_path / f"{count}.csv"
                assert run([*argv, "--out", str(out)]) == 0
                traces[count] = out.read_bytes()
        assert traces[1] == traces[None] == traces[3]

    @pytest.mark.parametrize("b,alpha,n", [(1, 0.5, 1), (3, 0.6, 1000), (4, 0.0, 17), (7, 1.0, 5000)])
    def test_inputs_are_the_plain_formula(self, b, alpha, n):
        scheme = fl.BlockScheme(amplitude=1.5, duty_cycle=alpha, block_length=b)
        u = 1.5 * (simulate.rng_stream(8, "amplitude").random(-(-n // b)) < alpha)
        d = simulate.rng_stream(8, "sign").integers(0, 2, size=n) * 2 - 1
        want = (u[np.arange(n) // b] * d).astype(complex)
        assert fl.gen_inputs(scheme, n, 8).tobytes() == want.tobytes()

    @pytest.mark.parametrize("law,model", [
        (["line", "--mass", "0.3", "--loc", "0.1", "--residual", "ar1", "--a", "0.6"],
         fl.line_plus_residual([(0.1, 0.3)], fl.ar1(0.6))),
        (["bandlimited", "--lambda-c", "0.1"], fl.bandlimited(0.1)),
    ], ids=["line", "bandlimited"])
    def test_trace_is_its_streams_drawn_alone(self, monkeypatch, capsys, law, model):
        # the fading is drawn first and the noise beside the inputs; each
        # stream has its own seed label, so the report is that of the three
        # streams drawn one after another
        pin_cpus(monkeypatch, 2)
        scheme = fl.BlockScheme(amplitude=2.0, duty_cycle=0.5, block_length=3)
        x, h = fl.gen_inputs(scheme, 5000, 4), fl.gen_fading(model, 5000, 4)
        y = h * x + np.sqrt(0.3) * spectra._cn(simulate.rng_stream(4, "noise"), 5000)
        buf = io.StringIO()
        simulate.trace_to_csv(simulate.ChannelTrace(
            x=x, h=h, y=y, sigma2=0.3, seed=4, peak_amplitude=2.0, snr=2.0 ** 2 / 0.3,
            model=model.label()), buf)
        argv = ["simulate", "--model", *law, "--n", "5000", "--A", "2", "--alpha", "0.5",
                "--b", "3", "--sigma2", "0.3", "--seed", "4"]
        assert report(argv, capsys) == buf.getvalue()


class TestHelpers:
    def test_no_thread_outlives_simulate_or_sweep(self, monkeypatch, tmp_path, capsys):
        pin_cpus(monkeypatch, 3)
        before = threading.active_count()
        assert run(["simulate", "--model", *LINE, "--n", "20000",
                    "--out", str(tmp_path / "t.csv")]) == 0
        assert run(["sweep", "--model", "ar1", "--a", "0.5", "--mc", "--b-list", "1,4",
                    "--alpha-list", "0.5", "--snr-list", "0.1,0.3", "--samples", "20000"]) == 0
        assert threading.active_count() == before

    @pytest.mark.parametrize("fails", ["synthesis", "inputs"])
    def test_no_thread_outlives_a_failed_simulate(self, monkeypatch, tmp_path, fails):
        pin_cpus(monkeypatch, 2)

        def refuse(*args):
            raise EmbeddingFailure("refused for the test")

        if fails == "synthesis":
            monkeypatch.setattr(spectra, "checked_circulant", refuse)
        else:
            monkeypatch.setattr(simulate, "gen_inputs", refuse)
        before = threading.active_count()
        assert run(["simulate", "--model", *LINE, "--n", "20000",
                    "--out", str(tmp_path / "t.csv")]) == 2
        assert "EmbeddingFailure" in (tmp_path / "t.csv").read_text()
        assert threading.active_count() == before

    def test_an_error_in_the_helper_reaches_the_caller(self, monkeypatch):
        pin_cpus(monkeypatch, 2)
        cn = simulate._cn
        started = threading.Event()    # the draw has started on the helper

        def fails(rng, size, out=None, scratch=None):
            if threading.current_thread() is not threading.main_thread():
                started.set()
                raise RuntimeError("draw failed")
            return cn(rng, size, out, scratch)

        monkeypatch.setattr(simulate, "_cn", fails)
        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate._cn_beside(np.random.default_rng(1), 1000, lambda: started.wait(10))
        assert threading.active_count() == before

    @pytest.mark.parametrize("count", [1, 2])
    def test_the_draw_is_the_serial_draw(self, monkeypatch, count):
        pin_cpus(monkeypatch, count)
        z, result = simulate._cn_beside(simulate.rng_stream(3, "noise"), 70_001, lambda: "done")
        assert result == "done"
        assert z.tobytes() == spectra._cn(simulate.rng_stream(3, "noise"), 70_001).tobytes()

    def test_the_helper_allocates_under_64_kib(self, monkeypatch):
        # the result (16 B per point) and the scratch are the calling thread's
        pin_cpus(monkeypatch, 2)
        n = 1 << 20
        simulate._cn_beside(np.random.default_rng(1), 64, lambda: None)  # caches outside the count
        tracemalloc.start()
        try:
            simulate._cn_beside(np.random.default_rng(1), n, lambda: None)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert peak - 16 * n - 8 * spectra._SYNTH_CHUNK < 64 * 1024

    @pytest.mark.parametrize("j", [0, 1])
    def test_a_batch_of_any_variance_allocates_under_64_kib(self, j):
        # one buffer set serves every variance's mixture
        scheme = fl.BlockScheme(amplitude=1.0, duty_cycle=5 / 6, block_length=4)
        mixes = [mi._Mixture(scheme, fl.ar1(0.8), s) for s in (10.0, 0.1)]
        _, ci, y = next(bt for bt in mi._batches(np.random.default_rng(2), mixes, 100_000)
                        if bt[0] == j)
        work = mi._Work(mixes, mixes[0].batch_rows)
        want = mi._batch_moments(mixes[j], work, ci, y)
        tracemalloc.start()
        try:
            got = mi._batch_moments(mixes[j], work, ci, y)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert got == want
        assert peak < 64 * 1024


class TestRunner:
    @pytest.mark.parametrize("count", [1, 2, 3, 8])
    def test_results_come_back_in_task_order(self, monkeypatch, count):
        pin_cpus(monkeypatch, count)
        lengths = random.Random(count).choices(range(1, 5000), k=200)
        made, used = [], {}

        def new_work():
            made.append(object())
            return made[-1]

        def task(i, work):
            used.setdefault(threading.get_ident(), set()).add(id(work))
            return i, sum(range(lengths[i]))

        got = []
        run = threading.Thread(target=lambda: got.append(
            simulate._run((functools.partial(task, i) for i in range(200)), 200, new_work)))
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            run.start()
            run.join(timeout=60)
        finally:
            sys.setswitchinterval(interval)
        assert not run.is_alive() and len(got) == 1
        assert got[0] == [(i, sum(range(n))) for i, n in enumerate(lengths)]
        # one work set per thread, each used by its thread alone
        assert len(made) == count and len(used) <= count
        assert all(len(ids) == 1 for ids in used.values())
        assert len(set().union(*used.values())) == len(used)

    def test_a_failing_task_iterable_raises_at_the_caller(self, monkeypatch):
        # as a failing ``mi._batches`` would, while both helpers hold a task
        pin_cpus(monkeypatch, 3)
        caller = threading.get_ident()
        held, release = threading.Semaphore(0), threading.Event()

        def task(work):
            if threading.get_ident() != caller:
                held.release()
                release.wait(10)

        def tasks():
            yield from [task] * 6
            for _ in range(2):
                assert held.acquire(timeout=10)
            release.set()
            raise RuntimeError("draw failed")

        before = threading.active_count()
        with pytest.raises(RuntimeError, match="draw failed"):
            simulate._run(tasks(), 6, lambda: None)
        assert threading.active_count() == before

    def test_one_cpu_runs_every_task_on_the_calling_thread(self, monkeypatch):
        pin_cpus(monkeypatch, 1)
        before = threading.active_count()
        idents = simulate._run([lambda work: threading.get_ident()] * 5, 5, lambda: None)
        assert idents == [threading.get_ident()] * 5
        assert threading.active_count() == before
