"""The users x features x products tensor of a ratings dataset: the direct
k = 2 3-D model that a 3-D run's 2-D solve is checked against.

The feature axis concatenates the included ``FEATURE_BLOCKS`` in that
fixed order, so a user's feature index is its code in a block plus the
widths of the included blocks before it.  The library keeps only the
check that every user carries the requested categories
(``user_feature_indices``); the offsets, the width and the tensor live
here.
"""

import numpy as np

from uctensor import SparseTensor, encode_features
from uctensor.datasets import FEATURE_BLOCKS, _check_plan_length, user_feature_indices


def feature_indices(dataset, categories):
    """The width of the concatenated blocks of ``categories`` and the
    (n_users, n_cat) array of each dense user's feature indices, one
    column per included block, offset by the widths of the blocks before
    it.  Raises what ``user_feature_indices`` raises."""
    codes = user_feature_indices(dataset, categories)
    widths = [FEATURE_BLOCKS[b][1] for b in encode_features(categories)]
    return sum(widths), codes + np.cumsum([0, *widths[:-1]])


def build_tensor_3d(dataset, categories, fold_plan, test_fold):
    """Train tensor (users x features x products): each training record
    writes its shifted rating at [u, f, p] for every feature index f of its
    user.  The held-out records come as arrays: (M, 2) (user, product)
    indices, M shifted truths, and the (M, n_cat) feature indices of each
    record's user, one column per included category.

    Returns ``(tensor, pairs, truth, features)``."""
    _check_plan_length(fold_plan, dataset)
    dim, feats_per_user = feature_indices(dataset, categories)
    test = fold_plan.test_mask(test_fold)
    train = ~test
    u = dataset.user_index[train]
    p = dataset.product_index[train]
    r = dataset.shifted_values[train]
    n_cat = feats_per_user.shape[1]
    # one entry per (record, included category); blocks are disjoint so a
    # record can never write the same cell twice
    indices = np.empty((len(u) * n_cat, 3), dtype=np.int64)
    indices[:, 0] = np.repeat(u, n_cat)
    indices[:, 1] = feats_per_user[u].reshape(-1)
    indices[:, 2] = np.repeat(p, n_cat)
    values = np.repeat(r, n_cat)
    shape = (dataset.n_users, dim, dataset.n_products)
    tensor = SparseTensor(shape, indices, values)

    test_users = dataset.user_index[test]
    pairs = np.stack([test_users, dataset.product_index[test]], axis=1)
    return tensor, pairs, dataset.shifted_values[test], feats_per_user[test_users]
