"""Machine-learning substrate, implemented from scratch on numpy.

Re-creates the model pool the paper attributes to IReS's *Modelling*
module (§2.4): least-squares regression, bagging predictors and a
multilayer perceptron (the WEKA trio), plus CART trees (bagging's base
learner), evaluation metrics, and the **Best-ML selection protocol**
(train everything, keep the model with the smallest training error).
"""

from repro.ml.dataset import Dataset
from repro.ml.metrics import (
    mean_absolute_error,
    mean_relative_error,
    r_squared,
    root_mean_squared_error,
    sum_squared_errors,
    total_sum_of_squares,
)
from repro.ml.base import Regressor
from repro.ml.linear import (
    MultipleLinearRegression,
    minimum_observations,
)
from repro.ml.tree import RegressionTree
from repro.ml.bagging import BaggingRegressor
from repro.ml.mlp import MLPRegressor
from repro.ml.selection import (
    BestModelSelector,
    ObservationWindow,
    default_model_pool,
)

__all__ = [
    "Dataset",
    "mean_absolute_error",
    "mean_relative_error",
    "r_squared",
    "root_mean_squared_error",
    "sum_squared_errors",
    "total_sum_of_squares",
    "Regressor",
    "MultipleLinearRegression",
    "minimum_observations",
    "RegressionTree",
    "BaggingRegressor",
    "MLPRegressor",
    "BestModelSelector",
    "ObservationWindow",
    "default_model_pool",
]
