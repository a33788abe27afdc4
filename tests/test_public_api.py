"""Public-API contract tests: exports resolve, are documented, and cohere."""

import importlib
import inspect

import pytest

import repro
from _model_zoo import CASES as ZOO_CASES
from _model_zoo import X_EVAL as ZOO_X_EVAL

SUBPACKAGES = (
    "repro.ab",
    "repro.causal",
    "repro.causal.meta",
    "repro.causal.neural",
    "repro.core",
    "repro.data",
    "repro.linear",
    "repro.metrics",
    "repro.nn",
    "repro.obs",
    "repro.runtime",
    "repro.serving",
    "repro.trees",
    "repro.utils",
)


class TestTopLevel:
    def test_version(self):
        assert repro.__version__ == "1.14.0"

    def test_all_exports_resolve(self):
        for name in repro.__all__:
            assert hasattr(repro, name), f"repro.__all__ lists missing name {name!r}"

    def test_headline_api_present(self):
        for name in (
            "RobustDRP",
            "DRPModel",
            "DirectRank",
            "TwoPhaseMethod",
            "make_setting",
            "aucc",
            "greedy_allocation",
            "ABTest",
            "Platform",
            "PolicyReplay",
            "ModelRegistry",
            "ScoringEngine",
            "BudgetPacer",
            "TrafficReplay",
        ):
            assert hasattr(repro, name)


@pytest.mark.parametrize("module_name", SUBPACKAGES)
class TestSubpackages:
    def test_importable(self, module_name):
        module = importlib.import_module(module_name)
        assert module.__doc__, f"{module_name} lacks a module docstring"

    def test_all_exports_resolve(self, module_name):
        module = importlib.import_module(module_name)
        for name in getattr(module, "__all__", ()):
            assert hasattr(module, name), f"{module_name}.__all__ lists missing {name!r}"


class TestDocstrings:
    @pytest.mark.parametrize(
        "obj",
        [
            repro.RobustDRP,
            repro.DRPModel,
            repro.DirectRank,
            repro.TwoPhaseMethod,
            repro.TARNet,
            repro.DragonNet,
            repro.OffsetNet,
            repro.SNet,
            repro.SLearner,
            repro.TLearner,
            repro.XLearner,
            repro.CausalForestUplift,
            repro.ConformalCalibrator,
            repro.HeuristicCalibration,
            repro.RoiStarEstimator,
            repro.IsotonicRoiRecalibration,
            repro.RCTDataset,
            repro.Platform,
            repro.ABTest,
        ],
    )
    def test_public_classes_documented(self, obj):
        assert inspect.getdoc(obj), f"{obj.__name__} lacks a docstring"

    @pytest.mark.parametrize(
        "func",
        [
            repro.aucc,
            repro.cost_curve,
            repro.qini_coefficient,
            repro.greedy_allocation,
            repro.greedy_allocation_by_roi,
            repro.binary_search_roi_star,
            repro.make_setting,
            repro.criteo_uplift_v2,
            repro.meituan_lift,
            repro.alibaba_lift,
            repro.exponential_tilt_shift,
            repro.make_tpm,
        ],
    )
    def test_public_functions_documented(self, func):
        assert inspect.getdoc(func), f"{func.__name__} lacks a docstring"


class TestTrainableModelProtocol:
    """Every zoo model speaks the unified trainable-model API.

    The streaming retraining loop depends on exactly this surface:
    ``clone_unfit()`` must produce a fresh same-hyperparameter
    instance whose refit learns only from the new window, and the
    refit must survive the pickle hop to serving workers.
    """

    @pytest.mark.parametrize("case", ZOO_CASES, ids=[c.name for c in ZOO_CASES])
    def test_clone_unfit_refit_pickle_roundtrip(self, case):
        import pickle

        import numpy as np

        from repro.causal.base import TrainableModel

        model = case.train(case.build())
        assert isinstance(model, TrainableModel)
        assert callable(model.fit)

        clone = model.clone_unfit()
        assert type(clone) is type(model)
        assert clone is not model
        refit = case.train(clone)
        assert refit is clone  # fit returns self

        # the refit ships to serving workers: pickle must round-trip
        # it with bit-identical predictions (pickle first — see
        # test_pickling.py on stateful prediction RNGs)
        replica = pickle.loads(pickle.dumps(refit))
        ours = np.asarray(case.predict(refit, ZOO_X_EVAL), dtype=float)
        theirs = np.asarray(case.predict(replica, ZOO_X_EVAL), dtype=float)
        assert np.array_equal(ours, theirs), f"{case.name} refit drifted"

    @pytest.mark.parametrize("case", ZOO_CASES, ids=[c.name for c in ZOO_CASES])
    def test_uplift_scores_entry_point(self, case):
        import numpy as np

        model = case.train(case.build())
        scores = model.uplift_scores(ZOO_X_EVAL)
        assert np.asarray(scores).shape[0] == ZOO_X_EVAL.shape[0]

    def test_clone_unfit_is_actually_unfit(self):
        import numpy as np

        from repro.linear import RidgeRegression

        rng = np.random.default_rng(0)
        x, y = rng.normal(size=(50, 3)), rng.normal(size=50)
        fitted = RidgeRegression(alpha=2.0, fit_intercept=False).fit(x, y)
        clone = fitted.clone_unfit()
        assert clone.alpha == 2.0 and clone.fit_intercept is False
        assert clone.coef_ is None  # no learned state carries over
        with pytest.raises(RuntimeError):
            clone.predict(x)

    def test_refit_model_dispatch(self):
        """refit_model routes (x, t, y_r, y_c) to each fit signature."""
        import numpy as np

        from repro.causal import TwoPhaseMethod, refit_model
        from repro.causal.meta import SLearner
        from repro.core.drp import DRPModel
        from repro.trees import DecisionTreeRegressor

        from _model_zoo import T as t, X as x, Y_C as y_c, Y_R as y_r

        for model in (
            DecisionTreeRegressor(max_depth=3),  # fit(x, y)
            SLearner(random_state=0),  # fit(x, y, t)
            DRPModel(hidden=10, epochs=2, n_restarts=1, patience=None,
                     random_state=0),  # fit(x, t, y_r, y_c)
            TwoPhaseMethod(SLearner(random_state=0),
                           SLearner(random_state=1)),  # fit(x, y_r, y_c, t)
        ):
            fitted = refit_model(model, x, t, y_r, y_c)
            assert fitted is model
            scores = np.asarray(fitted.uplift_scores(ZOO_X_EVAL))
            assert scores.shape[0] == ZOO_X_EVAL.shape[0]


class TestUpliftModelInterface:
    """Every zoo member implements the UpliftModel contract."""

    @pytest.mark.parametrize(
        "cls",
        [
            repro.SLearner,
            repro.TLearner,
            repro.XLearner,
            repro.CausalForestUplift,
            repro.TARNet,
            repro.DragonNet,
            repro.OffsetNet,
            repro.SNet,
        ],
    )
    def test_is_uplift_model(self, cls):
        from repro.causal.base import UpliftModel

        assert issubclass(cls, UpliftModel)
        assert callable(getattr(cls, "fit"))
        assert callable(getattr(cls, "predict_uplift"))
