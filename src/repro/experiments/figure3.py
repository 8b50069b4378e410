"""Figure 3: comparing the two MOQP approaches.

The paper contrasts (left branch) a *genetic multi-objective* pipeline —
evolve a Pareto plan set once, then answer any user policy with the
Weighted-Sum/constraint step of Algorithm 2 — against (right branch) the
*WSM-scalarised* pipeline of stock IReS, where the weighted sum drives
the whole search and a weight change restarts the optimisation.

This experiment makes the comparison quantitative on a real QEP space
(TPC-H Q12 on the federation, node counts x execution engine): for a
sweep of user weight vectors it measures, per approach,

* cost-model evaluations consumed (the expensive operation at Example
  3.1 scale),
* the achieved weighted-sum value vs the true optimum (regret), and
* for the GA branch, the hypervolume of its Pareto front vs the exact
  front.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.common.text import render_table
from repro.ires.modelling import DreamStrategy
from repro.ires.optimizer import MultiObjectiveOptimizer, OptimizerConfig
from repro.moqp.nsga2 import Nsga2Config
from repro.moqp.pareto import hypervolume_2d, pareto_front_indices
from repro.moqp.scalar_ga import ScalarGaConfig, ScalarGeneticOptimizer
from repro.moqp.selection import best_in_pareto
from repro.moqp.wsm import WeightedSumModel, normalise_objectives
from repro.tpch.queries import TPCH_QUERIES
from repro.workloads.tpch_runner import TpchFederationConfig, TpchFederationWorkload


@dataclass(frozen=True)
class Figure3Config:
    query: str = "q12"
    scale_mib: float = 100.0
    history_runs: int = 40
    weight_sweep: tuple[tuple[float, float], ...] = (
        (1.0, 0.0), (0.9, 0.1), (0.75, 0.25), (0.5, 0.5),
        (0.25, 0.75), (0.1, 0.9), (0.0, 1.0),
    )
    seed: int = 7
    #: Larger node menus make the QEP space big enough to be interesting.
    node_options: tuple[int, ...] = (1, 2, 3, 4, 6, 8, 12, 16)
    generations: int = 25
    population: int = 32


@dataclass
class Figure3Result:
    candidate_count: int = 0
    exact_front_size: int = 0
    ga_front_size: int = 0
    #: Fraction of the exact front's hypervolume the GA front covers.
    hypervolume_ratio: float = 0.0
    #: Evaluations: GA pipeline once + per weight change (approx 0).
    ga_evaluations: int = 0
    #: Evaluations the WSM pipeline spent across the whole sweep.
    wsm_evaluations: int = 0
    #: Per weight vector: (ga_regret, wsm_regret) vs the true optimum.
    regrets: list[tuple[float, float]] = field(default_factory=list)
    weight_sweep: tuple = ()

    @property
    def mean_ga_regret(self) -> float:
        return sum(r[0] for r in self.regrets) / len(self.regrets)

    @property
    def mean_wsm_regret(self) -> float:
        return sum(r[1] for r in self.regrets) / len(self.regrets)


def run_figure3(config: Figure3Config | None = None) -> Figure3Result:
    config = config or Figure3Config()
    workload = TpchFederationWorkload(
        TpchFederationConfig(
            scale_mib=config.scale_mib,
            seed=config.seed,
            queries=(config.query,),
            node_options={
                "cloud-a": list(config.node_options),
                "cloud-b": list(config.node_options),
            },
            fixed_execution=None,  # both engines: the full QEP space
        )
    )
    history = workload.build_history(config.query, config.history_runs)
    cost_model = DreamStrategy(r2_required=0.8).fit(history)

    params = TPCH_QUERIES[config.query].sample_params(workload._param_rng)
    candidates = workload.candidates(config.query, params)

    optimizer = MultiObjectiveOptimizer(
        OptimizerConfig(
            algorithm="nsga2",
            nsga2=Nsga2Config(
                population_size=config.population,
                generations=config.generations,
                seed=config.seed,
            ),
        )
    )
    metrics = ("time", "money")

    # Ground truth: exhaustive evaluation of the whole QEP space — one
    # batched predict_matrix call through the problem's matrix backend,
    # and the vectorized front scan (the space would also fit the
    # optimizer's exact path: the default exact_limit now covers it).
    exact_problem = optimizer.build_problem(candidates, cost_model, metrics)
    exact = exact_problem.evaluate_all()
    vectors = [c.objectives for c in exact]
    exact_front = [exact[i] for i in pareto_front_indices(vectors)]
    normalised = normalise_objectives(vectors)
    reference = (1.1, 1.1)
    exact_hv = hypervolume_2d(
        [normalised[i] for i in pareto_front_indices(vectors)], reference
    )

    result = Figure3Result(
        candidate_count=len(candidates),
        exact_front_size=len(exact_front),
        weight_sweep=config.weight_sweep,
    )

    # Left branch: GA once -> Pareto set -> Algorithm 2 per weight vector.
    from repro.moqp.nsga2 import Nsga2

    ga_problem = optimizer.build_problem(candidates, cost_model, metrics)
    ga_front = Nsga2(optimizer.config.nsga2).optimise(ga_problem)
    result.ga_evaluations = ga_problem.evaluation_count  # one-off cost
    result.ga_front_size = len(ga_front)

    index_of = {id(c): i for i, c in enumerate(candidates)}
    ga_normalised = []
    for member in ga_front:
        ga_normalised.append(normalised[index_of[id(member.payload)]])
    ga_hv = hypervolume_2d(ga_normalised, reference)
    result.hypervolume_ratio = ga_hv / exact_hv if exact_hv > 0 else 1.0

    # Right branch: WSM-driven GA, re-run per weight change.
    for weights in config.weight_sweep:
        model = WeightedSumModel(weights)
        scores = [model.scalarise(v) for v in normalised]
        true_best = min(scores)
        span = max(scores) - true_best

        ga_choice = best_in_pareto(ga_front, weights)
        ga_score = model.scalarise(normalised[index_of[id(ga_choice.payload)]])

        wsm_problem = optimizer.build_problem(candidates, cost_model, metrics)
        wsm_choice = ScalarGeneticOptimizer(
            weights,
            ScalarGaConfig(
                population_size=config.population,
                generations=config.generations,
                seed=config.seed,
            ),
        ).optimise(wsm_problem)
        result.wsm_evaluations += wsm_problem.evaluation_count
        wsm_score = model.scalarise(normalised[index_of[id(wsm_choice.payload)]])

        if span > 0:
            result.regrets.append(
                ((ga_score - true_best) / span, (wsm_score - true_best) / span)
            )
        else:
            result.regrets.append((0.0, 0.0))
    return result


def format_figure3(result: Figure3Result) -> str:
    rows = []
    for weights, (ga_regret, wsm_regret) in zip(result.weight_sweep, result.regrets):
        rows.append(
            (f"({weights[0]:.2f}, {weights[1]:.2f})", f"{ga_regret:.4f}", f"{wsm_regret:.4f}")
        )
    table = render_table(
        ["weights (time, money)", "GA+Pareto regret", "WSM-GA regret"],
        rows,
        title="Figure 3: genetic/Pareto pipeline vs WSM-scalarised pipeline.",
    )
    sweep = len(result.weight_sweep)
    notes = [
        f"QEP space: {result.candidate_count} candidates; exact front: "
        f"{result.exact_front_size}, GA front: {result.ga_front_size} "
        f"(hypervolume ratio {result.hypervolume_ratio:.3f})",
        f"cost-model evaluations for {sweep} weight changes: "
        f"GA+Pareto = {result.ga_evaluations} (optimise once, reuse), "
        f"WSM-GA = {result.wsm_evaluations} (re-optimise per change)",
        f"mean regret: GA+Pareto {result.mean_ga_regret:.4f}, "
        f"WSM-GA {result.mean_wsm_regret:.4f}",
    ]
    return table + "\n" + "\n".join(notes)
