"""Which iphfit calls are timed, and the per-layer metrics derived from them.

``install_light`` times only ``estimator.fit`` and ``estimator.sem_iteration``
(the end-to-end ``fit_s`` and ``sweep_s``); it adds a few hundred spans to a
pass.  ``install_full`` times a call at every layer boundary and counts work
there.  Both only wrap calls from the outside; neither edits the package.
"""

from __future__ import annotations

import os

import numpy as np

import checks
from tracing import Tracer

# metric name -> span name whose self time it reports
SELF_TIMES = {
    "estimator.init_s": "estimator.init",
    "estimator.se_step_s": "estimator.se_step",
    "kernels.complete_s": "kernels.complete",
    "kernels.sim_s": "kernels.sim",
    "paths.stream_setup_s": "paths.stream_setup",
    "paths.assemble_s": "paths.assemble",
    "scaling.g_inv_s": "scaling.g_inv",
    "likelihood.stats_s": "likelihood.stats",
    "likelihood.mstep_s": "likelihood.mstep",
    "likelihood.ascent_s": "likelihood.ascent",
    "likelihood.density_build_s": "likelihood.density_build",
    "simulate.bridge_s": "simulate.bridge",
    "studies.cohort_s": "studies.cohort",
    "studies.panel_s": "studies.panel",
    "studies.gof_sample_s": "studies.gof_sample",
    "gof.ks_s": "gof.ks",
    "panelio.read_panel_s": "panelio.read_panel",
    "panelio.write_report_s": "panelio.write_report",
    "panelio.read_report_s": "panelio.read_report",
}

# metric name -> span name whose number of calls it reports
CALL_COUNTS = {
    "estimator.sem_iterations": "estimator.sem_iteration",
    "paths.streams": "paths.stream_setup",
    "paths.assembled": "paths.assemble",
    "scaling.g_inv_calls": "scaling.g_inv",
    "likelihood.loglik_evals": "likelihood.loglik",
    "likelihood.gradient_evals": "likelihood.gradient",
    "simulate.bridge_calls": "simulate.bridge",
}

COUNTERS = (
    "kernels.calls",
    "kernels.retries",
    "kernels.jumps_kept",
    "kernels.draws",
    "likelihood.ascent_updates",
    "panelio.bytes_read",
    "panelio.bytes_written",
)


def _modules():
    from iphfit import (
        _kernels,
        cli,
        estimator,
        gof,
        likelihood,
        panelio,
        paths,
        scaling,
        simulate,
        studies,
    )

    return _kernels, cli, estimator, gof, likelihood, panelio, paths, scaling, simulate, studies


def install_light(tracer: Tracer) -> None:
    _k, _c, estimator, *_rest = _modules()
    tracer.patch_function(estimator, "fit", lambda f: tracer.timed("estimator.fit", f))
    tracer.patch_function(
        estimator, "sem_iteration", lambda f: tracer.timed("estimator.sem_iteration", f)
    )


class CountingGenerator:
    """A copy of a generator that counts the draws the kernel makes."""

    __slots__ = ("_gen", "exponentials", "uniforms")

    def __init__(self, gen: np.random.Generator):
        bit_gen = type(gen.bit_generator)()
        bit_gen.state = gen.bit_generator.state
        self._gen = np.random.Generator(bit_gen)
        self.exponentials = 0
        self.uniforms = 0

    def exponential(self, scale):
        self.exponentials += 1
        return self._gen.exponential(scale)

    def random(self):
        self.uniforms += 1
        return self._gen.random()


def install_full(tracer: Tracer, failures: list) -> None:
    """Wrap every layer boundary; path checks of each SE-step append their
    messages to ``failures``."""
    (_kernels, cli, estimator, gof, likelihood, panelio, paths, scaling,
     simulate, studies) = _modules()
    timed = tracer.timed
    counters = tracer.counters

    def simple(module, attr, name):
        tracer.patch_function(module, attr, lambda f: timed(name, f))

    install_light(tracer)
    simple(estimator, "initialize", "estimator.init")
    simple(estimator, "_complete_all", "estimator.se_step")
    simple(_kernels, "sim_path", "kernels.sim")
    simple(likelihood, "accumulate_statistics", "likelihood.stats")
    simple(likelihood, "mle_generator", "likelihood.mstep")
    simple(likelihood, "beta_loglik", "likelihood.loglik")
    simple(likelihood, "beta_gradient", "likelihood.gradient")
    simple(simulate, "bridge_sample", "simulate.bridge")
    simple(studies, "run_study", "studies.run_study")
    simple(studies, "simulate_cohort", "studies.cohort")
    simple(studies, "cohort_panel", "studies.panel")
    simple(studies, "fitted_absorption_sample", "studies.gof_sample")
    simple(gof, "ks_two_sample", "gof.ks")
    simple(panelio, "write_report", "panelio.write_report")
    simple(cli, "cmd_fit", "cli.fit")
    simple(cli, "cmd_gof", "cli.gof")
    tracer.patch_method(paths.RandomStream, "generator", lambda f: timed("paths.stream_setup", f))
    tracer.patch_method(paths.ContinuousPath, "__init__", lambda f: timed("paths.assemble", f))
    tracer.patch_method(scaling.ScalingFamily, "g_inv", lambda f: timed("scaling.g_inv", f))
    tracer.patch_method(
        likelihood._AbsorptionKernel, "__init__", lambda f: timed("likelihood.density_build", f)
    )

    def ascent(f):
        inner = timed("likelihood.ascent", f)

        def wrapper(*args, **kwargs):
            result = inner(*args, **kwargs)
            counters["likelihood.ascent_updates"] += result[1]
            return result

        return wrapper

    tracer.patch_function(likelihood, "gd_solve", ascent)

    def reading(name):
        def make(f):
            inner = timed(name, f)

            def wrapper(file, *args, **kwargs):
                if not hasattr(file, "read"):
                    counters["panelio.bytes_read"] += os.path.getsize(file)
                return inner(file, *args, **kwargs)

            return wrapper

        return make

    tracer.patch_function(panelio, "read_panel", reading("panelio.read_panel"))
    tracer.patch_function(panelio, "read_report", reading("panelio.read_report"))
    tracer.patch_function(panelio, "read_config", reading("panelio.read_config"))

    def writing(f):
        def wrapper(path, text):
            counters["panelio.bytes_written"] += len(text.encode("utf-8"))
            return f(path, text)

        return wrapper

    tracer.patch_function(panelio, "_atomic_write", writing)

    def kernel(f):
        replay = getattr(f, "py_func", f)  # the pure-Python body under numba
        scratch = {}
        last = [0]

        def wrapper(gen, obs_s, obs_x, cum, total, n, max_attempts, tbuf, sbuf):
            with tracer.span("bench.count"):
                copy = CountingGenerator(gen)
            result = tracer.call(
                "kernels.complete", f, gen, obs_s, obs_x, cum, total, n, max_attempts, tbuf, sbuf
            )
            with tracer.span("bench.count"):
                status = int(result[0])
                counters["kernels.calls"] += 1
                if last[0] == 1:
                    counters["kernels.retries"] += 1
                last[0] = status
                if status == 0:
                    counters["kernels.jumps_kept"] += int(result[2])
                if tbuf.shape not in scratch:
                    scratch[tbuf.shape] = (np.empty_like(tbuf), np.empty_like(sbuf))
                t2, s2 = scratch[tbuf.shape]
                again = replay(copy, obs_s, obs_x, cum, total, n, max_attempts, t2, s2)
                if tuple(again) != tuple(result):
                    failures.append("kernel replay on a copied generator diverged")
                counters["kernels.draws"] += copy.exponentials + copy.uniforms
                counters["kernels.jumps_drawn"] += copy.uniforms
            return result

        return wrapper

    tracer.patch_function(_kernels, "complete_panel_path", kernel)

    def sweep_checks(f):
        def wrapper(*args, **kwargs):
            result = f(*args, **kwargs)
            with tracer.span("bench.check"):
                panel, beta, cfg, it = args[0], args[3], args[4], args[6]
                label = f"{cfg.family} fit, iteration {it}"
                failures.extend(
                    checks.completed_paths(
                        label, panel.times, panel.states0, cfg.family, beta,
                        result.completed, panel.n,
                    )
                )
                failures.extend(
                    checks.lambda_from_counts(
                        label, result.completed, panel.n, result.lam_hat.entries
                    )
                )
            return result

        return wrapper

    # outermost wrapper on sem_iteration: its check span is a child of fit
    tracer.patch_function(estimator, "sem_iteration", sweep_checks)


def unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.startswith("panelio.bytes"):
        return "bytes"
    return "ratio" if name.endswith("_ratio") else "count"


def per_layer(tracer: Tracer, warning_counts: dict) -> dict:
    """Every per-layer metric of one traced pass, as name -> value."""
    own = tracer.self_times()
    out = {name: own.get(span, 0.0) for name, span in SELF_TIMES.items()}
    out.update({name: tracer.count(span) for name, span in CALL_COUNTS.items()})
    out.update({name: int(tracer.counters.get(name, 0)) for name in COUNTERS})
    drawn = tracer.counters.get("kernels.jumps_drawn", 0)
    out["kernels.accept_ratio"] = out["kernels.jumps_kept"] / drawn if drawn else 0.0
    out["warnings.density_underflow"] = sum(
        n for msg, n in warning_counts.items() if msg.startswith("density underflow")
    )
    return out
