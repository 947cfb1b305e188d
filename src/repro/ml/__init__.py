"""Machine-learning substrate for ExBox.

scikit-learn is intentionally not a dependency: the paper's Admittance
Classifier needs only a binary C-SVM with batch retraining, cross-validation
and standard classification metrics, all of which are implemented here on
top of numpy.
"""

from repro.ml.kernels import LinearKernel, PolynomialKernel, RBFKernel, resolve_kernel
from repro.ml.metrics import (
    accuracy_score,
    confusion_matrix,
    precision_score,
    recall_score,
)
from repro.ml.naive_bayes import GaussianNaiveBayes
from repro.ml.scaling import StandardScaler
from repro.ml.svm import SVC
from repro.ml.tree import DecisionTreeClassifier
from repro.ml.validation import KFold, cross_val_accuracy

__all__ = [
    "DecisionTreeClassifier",
    "GaussianNaiveBayes",
    "KFold",
    "LinearKernel",
    "PolynomialKernel",
    "RBFKernel",
    "SVC",
    "StandardScaler",
    "accuracy_score",
    "confusion_matrix",
    "cross_val_accuracy",
    "precision_score",
    "recall_score",
    "resolve_kernel",
]
