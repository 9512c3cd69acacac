"""Fault injection: corruption kinds, degradation, cancellation, serve."""

import numpy as np
import pytest

from repro.checking.faults import (
    FAULT_KINDS,
    check_artifact_degradation,
    check_mid_batch_cancellation,
    check_serve_malformed,
    corrupt_artifact,
    malformed_request_lines,
    run_fault_suite,
)
from repro.errors import ServiceError


@pytest.mark.parametrize("kind", FAULT_KINDS)
def test_corrupt_artifact_changes_the_file(tmp_path, kind):
    from repro.checking.families import generate_case
    from repro.service import MSTService
    from repro.service.artifacts import ArtifactStore

    store = ArtifactStore(tmp_path)
    svc = MSTService(store, algorithm="kruskal")
    artifact = svc.load_graph(generate_case("few-distinct-weights", 0, 10).graph)
    path = store.path_for(artifact.fingerprint)
    before = path.read_bytes()
    corrupt_artifact(path, kind, seed=1)
    assert path.read_bytes() != before


def test_corrupt_artifact_rejects_unknown_kind(tmp_path):
    path = tmp_path / "x.npz"
    np.savez(path, a=np.arange(3))
    with pytest.raises(ServiceError):
        corrupt_artifact(path, "no-such-kind")


@pytest.mark.parametrize("seed", [0, 1, 2])
def test_artifact_degradation_across_seeds(tmp_path, seed):
    report = check_artifact_degradation(tmp_path, seed=seed)
    assert report.checks_run > 0
    assert report.ok, report.failures


def test_mid_batch_cancellation():
    report = check_mid_batch_cancellation(seed=0)
    assert report.checks_run == 4
    assert report.ok, report.failures


def test_malformed_lines_are_deterministic():
    assert malformed_request_lines(5) == malformed_request_lines(5)
    assert len(malformed_request_lines(0)) == 12


def test_serve_answers_malformed_lines_in_stream(tmp_path):
    report = check_serve_malformed(tmp_path, seed=0)
    assert report.ok, report.failures


@pytest.mark.slow
def test_full_fault_suite(tmp_path):
    report = run_fault_suite(tmp_path, seed=3)
    assert report.checks_run >= 25
    assert report.ok, report.failures


@pytest.mark.parametrize("problem", ["cc", "sssp"])
def test_problem_artifact_degradation(tmp_path, problem):
    # The same corruption kinds, through the same store, on problem files.
    report = check_artifact_degradation(tmp_path, seed=0, problem=problem)
    assert report.checks_run == 5 * len(FAULT_KINDS)
    assert report.ok, report.failures
