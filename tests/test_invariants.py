"""The reduction chain and the routing invariants as one property over small
shapes, checked bit for bit:

- finetune, fcr(0, 0), er(0, 0) and derpp(0, 0) take the same steps;
- er(beta), fcr(0, beta) and derpp(0, beta) take the same steps;
- while a task trains, every other task's routers and head stay as they are;
- stacked `SurvivalModel.routing` counts the selections each case's own
  `forward` returns.
"""

import hashlib

import numpy as np
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from survstream import autodiff as ad
from survstream.harness import MethodConfig, build_model, run_sequence
from survstream.survival import InsufficientEventsError
from survstream.synthdata import GenerationError, GeneratorConfig, generate_stream


def _task_owned(name: str) -> bool:
    return ".router" in name or name.startswith("head")


def _owner(name: str) -> int:
    """The task id in a router or head parameter's name."""
    part = name.split(".router")[1] if ".router" in name else name[4:]
    return int(part.split(".")[0])


def _traced_run(cfg, stream):
    """`run_sequence` plus, after every step, a digest of every parameter and
    a copy of every router and head."""
    steps = []

    def hook(model):
        state = model.get_state()
        digest = hashlib.sha256()
        for name in sorted(state):
            digest.update(state[name].tobytes())
        steps.append((digest.hexdigest(), {k: v for k, v in state.items()
                                           if _task_owned(k)}))

    return run_sequence(cfg, stream, step_hook=hook), steps


def _assert_other_tasks_frozen(cfg, stream, result, steps):
    """Each step belongs to the task then training; another task's routers
    and head hold their initial values before it trains and their final
    values after."""
    initial = build_model(stream, cfg).get_state()
    final = result.model.get_state()
    order = [t.task_id for t in stream.tasks]
    owners = [t.task_id for t, (tr, _) in zip(stream.tasks, result.splits)
              for _ in range(cfg.epochs * len(tr))]
    assert len(owners) == len(steps)
    for training, (_, held) in zip(owners, steps):
        for name, value in held.items():
            other = _owner(name)
            if other == training:
                continue
            ref = initial if order.index(other) > order.index(training) else final
            assert np.array_equal(value, ref[name]), (cfg.method, name)


def _forward_fractions(model, cases, task_id) -> dict[str, np.ndarray]:
    """Per-site selection fractions of the selections each case's own
    forward returns (patch, genomic, fusion site)."""
    counts = np.zeros((3, model.cfg.n_experts))
    with ad.no_grad():
        for case in cases:
            for site, chosen in enumerate(model.forward(case, task_id)[4]):
                counts[site] += chosen[0]  # one case's (1, n_experts) mask
    return dict(zip(("patch", "genomic", "fusion"), counts / len(cases)))


@st.composite
def settings_and_stream(draw):
    n_experts = draw(st.integers(2, 5))
    lo = draw(st.integers(1, 6))
    gen = GeneratorConfig(
        n_tasks=draw(st.integers(2, 3)), cases_per_task=draw(st.integers(10, 20)),
        n_patches=(lo, draw(st.integers(lo, 6))), d_patch=4,
        group_dims=(3, 2, 4, 2, 3, 2), seed=draw(st.integers(0, 2 ** 16)))
    kw = dict(epochs=draw(st.integers(1, 2)),
              buffer_capacity=draw(st.integers(1, 8)), latent=4, hidden=6,
              n_experts=n_experts,
              k_top=draw(st.integers(0, n_experts - 2)), n_folds=2,
              seed=draw(st.integers(0, 2 ** 16)))
    replay = dict(replay_count=draw(st.integers(1, 3)))
    beta = draw(st.floats(0.1, 1.0))
    try:
        stream = generate_stream(gen)
    except (GenerationError, InsufficientEventsError):
        assume(False)  # too few uncensored cases to place the time bins
    return stream, kw, replay, beta


@settings(max_examples=10, deadline=None)
@given(settings_and_stream())
def test_reduction_chain_frozen_routers_and_routing(drawn):
    stream, kw, replay, beta = drawn
    zero = dict(alpha=0.0, beta=0.0, **replay)
    replayed = dict(alpha=0.0, beta=beta, **replay)
    runs = {(m, loss): MethodConfig(method=m, **weights, **kw)
            for m, loss, weights in
            [("finetune", "none", {})]
            + [(m, "zero", zero) for m in ("fcr", "er", "derpp")]
            + [(m, "beta", replayed) for m in ("er", "fcr", "derpp")]}
    digests = {}
    for key, cfg in runs.items():
        result, steps = _traced_run(cfg, stream)
        digests[key] = [d for d, _ in steps]
        _assert_other_tasks_frozen(cfg, stream, result, steps)
        if key == ("fcr", "beta"):
            model = result.model
            for task in stream.tasks:
                # the whole task in one stack, and each case alone
                for cases in [task.cases] + [[c] for c in task.cases]:
                    routed = model.routing(cases, task.task_id)
                    forward = _forward_fractions(model, cases, task.task_id)
                    for site, fractions in forward.items():
                        assert np.array_equal(routed[site], fractions), site
    assert digests[("finetune", "none")]
    for m in ("fcr", "er", "derpp"):
        assert digests[(m, "zero")] == digests[("finetune", "none")], m
    for m in ("fcr", "derpp"):
        assert digests[(m, "beta")] == digests[("er", "beta")], m
