"""Loop-based reference implementations of pilot assignment and cooperation
clusters.

``form_dcc_dicts`` keeps the two decisions of ``cfofdm.network.form_dcc`` in
dicts keyed by (AP, pilot): the strongest same-pilot UE of every slot, and the
slots pinned by master claims, merged slot by slot into D.
``assign_pilots_greedy_loop`` sums each pilot's load one UE at a time.  It has
no capacity rule: it may put more than L UEs on one pilot, so it matches the
package only where no pilot overfills.
"""

import numpy as np


def assign_pilots_greedy_loop(beta, tau_p):
    """Greedy pilots: UEs in descending order of their strongest link take the
    pilot with the least accumulated gain at their strongest AP."""
    K = beta.shape[0]
    t = np.full(K, -1, dtype=int)
    order = np.argsort(-beta.max(axis=1), kind="stable")
    for k in order:
        l_star = int(np.argmax(beta[k]))
        contamination = np.zeros(tau_p)
        for i in np.flatnonzero(t >= 0):
            contamination[t[i]] += beta[i, l_star]
        t[k] = int(np.argmin(contamination))
    return t


def form_dcc_dicts(beta, pilot_index, tau_p):
    """D (K, L): every AP serves the strongest UE of each pilot in use, and every
    UE's best AP with its pilot's slot not yet claimed is forced to serve it."""
    K, L = beta.shape
    winner = {}  # (l, t) -> strongest UE using pilot t, from AP l's view
    for t in np.unique(pilot_index):
        users = np.flatnonzero(pilot_index == t)
        best = users[np.argmax(beta[users, :], axis=0)]
        for l in range(L):
            winner[(l, int(t))] = int(best[l])

    forced = {}  # (l, t) -> UE whose master claim pinned this slot
    order = np.argsort(-beta.max(axis=1), kind="stable")
    for k in order:
        t = int(pilot_index[k])
        for l in np.argsort(-beta[k]):
            if (int(l), t) not in forced:
                forced[(int(l), t)] = int(k)
                break
        else:
            raise RuntimeError("no AP available to serve UE %d" % k)

    D = np.zeros((K, L), dtype=np.int8)
    for l in range(L):
        for t in np.unique(pilot_index):
            k = forced.get((l, int(t)), winner[(l, int(t))])
            D[k, l] = 1
    return D
