"""Tests for MIDAS: medical data, Example 2.1, the end-to-end system."""

import pytest

from repro.common.rng import RngStream
from repro.ires.policy import UserPolicy
from repro.midas import (
    MEDICAL_QUERIES,
    MedicalDataGenerator,
    MidasSystem,
    example_21_query,
    medical_schema,
)
from repro.plans import Catalog, execute_sql


@pytest.fixture(scope="module")
def tables():
    return MedicalDataGenerator(patient_count=300, seed=5).generate_all()


@pytest.fixture(scope="module")
def midas():
    system = MidasSystem(patient_count=300, seed=5)
    system.warm_up("medical-demographics", runs=10)
    return system


class TestGenerator:
    def test_deterministic(self):
        a = MedicalDataGenerator(100, seed=1).patient().to_rows()
        b = MedicalDataGenerator(100, seed=1).patient().to_rows()
        assert a == b

    def test_schemas(self, tables):
        for name, table in tables.items():
            assert table.schema == medical_schema(name), name

    def test_patient_count(self, tables):
        assert tables["patient"].num_rows == 300

    def test_generalinfo_is_subset_of_patients(self, tables):
        uids = set(tables["patient"].column("uid"))
        info_uids = set(tables["generalinfo"].column("uid"))
        assert info_uids <= uids
        # ~10% of patients lack a GeneralInfo record (mobile patients).
        assert 0.75 <= len(info_uids) / len(uids) <= 0.99

    def test_lab_results_reference_patients(self, tables):
        uids = set(tables["patient"].column("uid"))
        assert set(tables["labresult"].column("uid")) <= uids

    def test_ages_in_range(self, tables):
        assert all(0 <= age < 100 for age in tables["patient"].column("patientage"))

    def test_severity_range(self, tables):
        assert all(1 <= s <= 5 for s in tables["generalinfo"].column("severity"))


class TestMedicalQueries:
    def test_example_21_is_the_paper_query(self):
        sql = example_21_query.render({"min_age": 0})
        assert "patientsex" in sql
        assert "generalnames" in sql
        assert "p.uid = i.uid" in sql

    def test_example_21_executes(self, tables):
        catalog = Catalog(tables.values())
        result = execute_sql(example_21_query.render({"min_age": 0}), catalog)
        # One output row per patient with a GeneralInfo record.
        assert result.num_rows == tables["generalinfo"].num_rows
        assert result.schema.names == ["patientsex", "generalnames"]

    def test_age_filter_monotone(self, tables):
        catalog = Catalog(tables.values())
        young = execute_sql(example_21_query.render({"min_age": 0}), catalog)
        old = execute_sql(example_21_query.render({"min_age": 60}), catalog)
        assert old.num_rows <= young.num_rows

    def test_severe_cases_aggregates(self, tables):
        catalog = Catalog(tables.values())
        sql = MEDICAL_QUERIES["medical-severe-cases"].render(
            {"severity": 4, "min_age": 0}
        )
        result = execute_sql(sql, catalog)
        assert "cases" in result.schema.names
        counts = result.column("cases")
        assert counts == sorted(counts, reverse=True)

    def test_lab_followup_runs(self, tables):
        catalog = Catalog(tables.values())
        sql = MEDICAL_QUERIES["medical-lab-followup"].render({"testname": "glucose"})
        result = execute_sql(sql, catalog)
        assert result.num_rows <= 20  # LIMIT respected

    def test_all_templates_have_two_tables(self):
        for template in MEDICAL_QUERIES.values():
            assert len(template.tables) == 2


class TestMidasSystem:
    def test_query_returns_submission(self, midas):
        result = midas.query("medical-demographics", {"min_age": 30})
        assert result.candidate_count > 0
        assert result.execution.metrics.execution_time_s > 0

    def test_policy_changes_choice_pressure(self, midas):
        fast = midas.query(
            "medical-demographics", {"min_age": 30}, UserPolicy(weights=(1.0, 0.0))
        )
        cheap = midas.query(
            "medical-demographics", {"min_age": 30}, UserPolicy(weights=(0.0, 1.0))
        )
        # With all weight on a metric, the chosen plan minimises that
        # metric's prediction inside its Pareto set.
        fast_times = [c.objectives[0] for c in fast.pareto_set]
        assert fast.predicted[0] == pytest.approx(min(fast_times))
        cheap_money = [c.objectives[1] for c in cheap.pareto_set]
        assert cheap.predicted[1] == pytest.approx(min(cheap_money))

    def test_history_grows(self, midas):
        before = midas.gateway.history("medical-demographics").size
        midas.query("medical-demographics")
        assert midas.gateway.history("medical-demographics").size == before + 1

    def test_execute_locally_ground_truth(self, midas):
        result = midas.execute_locally("medical-demographics", {"min_age": 0})
        assert result.num_rows > 0

    def test_ticks_monotone(self, midas):
        first = midas.next_tick()
        second = midas.next_tick()
        assert second == first + 1
