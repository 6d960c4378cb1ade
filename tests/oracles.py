"""Reference formulas the tests check the program against.

``pair_loss`` and ``pair_gradients`` write out the negative-sampling loss of
one (center, context, negatives) triple and its analytic gradients, one
vector at a time.  The trainer's ``_sgd_step`` must apply exactly these
gradients, and criterion 4 checks them against central differences.
"""

import numpy as np

from knowspan.embedding import expit


def pair_loss(
    center_vec: np.ndarray, context_vec: np.ndarray, negative_vecs: np.ndarray
) -> float:
    """Negative-sampling loss for one (center, context, negatives) triple."""
    s_pos = float(context_vec @ center_vec)
    s_neg = np.asarray(negative_vecs) @ center_vec
    return float(np.logaddexp(0.0, -s_pos) + np.logaddexp(0.0, s_neg).sum())


def pair_gradients(
    center_vec: np.ndarray, context_vec: np.ndarray, negative_vecs: np.ndarray
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Analytic gradients of pair_loss w.r.t. center, context, and negatives."""
    negative_vecs = np.asarray(negative_vecs)
    p_pos = expit(float(context_vec @ center_vec))
    p_neg = np.array([expit(s) for s in (negative_vecs @ center_vec).tolist()])
    g_context = (p_pos - 1.0) * center_vec
    g_negatives = p_neg[:, None] * center_vec[None, :]
    g_center = (p_pos - 1.0) * context_vec + p_neg @ negative_vecs
    return g_center, g_context, g_negatives
