"""Tests for the admission-control metrics."""

import numpy as np
import pytest

from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    precision_score,
    recall_score,
)


class TestConfusionMatrix:
    def test_all_cells(self):
        y_true = [1, 1, -1, -1, 1, -1]
        y_pred = [1, -1, 1, -1, 1, -1]
        cm = confusion_matrix(y_true, y_pred)
        # [[tn, fp], [fn, tp]]
        assert cm.tolist() == [[2, 1], [1, 2]]

    def test_rejects_non_pm1_labels(self):
        with pytest.raises(ValueError):
            confusion_matrix([0, 1], [1, 1])

    def test_rejects_length_mismatch(self):
        with pytest.raises(ValueError):
            confusion_matrix([1, 1], [1])


class TestScores:
    def test_perfect(self):
        y = [1, -1, 1, -1]
        assert precision_score(y, y) == pytest.approx(1.0)
        assert recall_score(y, y) == pytest.approx(1.0)
        assert accuracy_score(y, y) == pytest.approx(1.0)

    def test_paper_definitions(self):
        # 3 admitted, 2 of them correctly -> precision 2/3.
        y_true = [1, 1, -1, 1]
        y_pred = [1, 1, 1, -1]
        assert precision_score(y_true, y_pred) == pytest.approx(2 / 3)
        # 3 admissible, 2 admitted -> recall 2/3.
        assert recall_score(y_true, y_pred) == pytest.approx(2 / 3)
        assert accuracy_score(y_true, y_pred) == pytest.approx(0.5)

    def test_conservative_controller_precision_default(self):
        # Admits nothing: by the paper's convention precision defaults
        # high while recall exposes the conservatism.
        y_true = [1, 1, -1]
        y_pred = [-1, -1, -1]
        assert precision_score(y_true, y_pred) == pytest.approx(1.0)
        assert recall_score(y_true, y_pred) == pytest.approx(0.0)

    def test_recall_default_when_nothing_admissible(self):
        y_true = [-1, -1]
        y_pred = [-1, -1]
        assert recall_score(y_true, y_pred) == pytest.approx(1.0)

    def test_accuracy_empty_is_zero(self):
        assert accuracy_score([], []) == pytest.approx(0.0)

    def test_numpy_inputs_accepted(self):
        y = np.array([1.0, -1.0, 1.0])
        assert accuracy_score(y, y) == pytest.approx(1.0)

