"""run_to_accuracy driver tests."""

import numpy as np

from repro import nn
from repro.core import RunConfig
from repro.models import MLP
from repro.optim import SGD
from repro.train import ParallelTrainer, run_to_accuracy


def _setup(lr=0.5, seed=0):
    rng = np.random.default_rng(seed)
    x = rng.standard_normal((128, 6)).astype(np.float32)
    y = (x[:, 0] > 0).astype(np.int64)
    model = MLP((6, 16, 2), rng=np.random.default_rng(seed))
    config = RunConfig(op="average", num_ranks=2, microbatch=8, seed=seed)
    tr = ParallelTrainer(model, nn.CrossEntropyLoss(), lambda ps: SGD(ps, lr), x, y,
                         config)
    return tr, x, y


class TestRunToAccuracy:
    def test_converges_on_easy_task(self):
        tr, x, y = _setup()
        res = run_to_accuracy(tr, x, y, target=0.9, max_epochs=20)
        assert res.converged
        assert res.epochs_to_target <= 20
        assert res.best_accuracy >= 0.9
        assert len(res.accuracy_history) == res.epochs_to_target

    def test_budget_exhaustion_reported(self):
        tr, x, y = _setup(lr=1e-6)  # effectively frozen
        res = run_to_accuracy(tr, x, y, target=0.99, max_epochs=2)
        assert not res.converged
        assert res.epochs_to_target is None
        assert len(res.accuracy_history) == 2

    def test_custom_eval_fn(self):
        tr, x, y = _setup()
        calls = []

        def eval_fn(model):
            calls.append(1)
            return 1.0  # instantly "converged"

        res = run_to_accuracy(tr, x, y, target=0.5, max_epochs=5, eval_fn=eval_fn)
        assert res.epochs_to_target == 1
        assert len(calls) == 1

    def test_divergence_stops_early(self):
        tr, x, y = _setup(lr=1e4)  # guaranteed blow-up
        res = run_to_accuracy(tr, x, y, target=0.99, max_epochs=50)
        assert not res.converged
        assert len(res.loss_history) < 50  # bailed out on non-finite loss
