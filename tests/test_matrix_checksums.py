"""Every Kronecker-assembled matrix of the diagram, pinned by checksum.

On curl/div x 2-D/3-D x p 1..3 x n 2/4/8 (essential bc): D, the
potential map T, the transfers P and P_curl (3-D div), the masses M_D
and M_range, H, L and every basis of ``space.sectors`` (518 matrices).
A checksum hashes the stored ``indptr`` and ``indices`` and the data
rounded to 12 digits, as ``assembly.system_manifest`` does, so a change
of sparsity pattern, index order or a value shows.

    PYTHONPATH=src python tests/test_matrix_checksums.py

rewrites ``tests/data/matrix_checksums.json``; a change that moves any
of these matrices says so, and why, where it rewrites the file.
"""

import hashlib
import itertools
import json
from pathlib import Path

import numpy as np

from iga_asp.assembly import h1_vector_matrix, scalar_laplacian_matrix, system_setup
from iga_asp.transfer import build_transfer_set

DATA = Path(__file__).resolve().parent / "data" / "matrix_checksums.json"


def _checksum(mat) -> str:
    h = hashlib.sha256()
    h.update(mat.format.encode())
    h.update(np.asarray(mat.shape).tobytes())
    h.update(mat.indptr.tobytes())
    h.update(mat.indices.tobytes())
    h.update(np.round(mat.data, 12).tobytes())
    return h.hexdigest()[:16]


def checksums() -> dict[str, str]:
    out = {}
    for op, dim, p, n in itertools.product(("curl", "div"), (2, 3), (1, 2, 3),
                                           (2, 4, 8)):
        setup = system_setup(op, dim, p, n)
        ts = build_transfer_set(setup)
        mats = {"D": setup.D_mat, "T": ts.potential, "P": ts.P_main,
                "P_curl": ts.P_curl, "M_D": setup.M_D, "M_range": setup.M_range,
                "H": h1_vector_matrix(setup.disc).tocsr(),
                "L": scalar_laplacian_matrix(setup.disc).tocsr()}
        mats.update({f"sector{i}": Q for i, Q in enumerate(setup.space.sectors)})
        for name, mat in mats.items():
            if mat is not None:
                out[f"{op} {dim}-d p={p} n={n} {name}"] = _checksum(mat)
    return out


def test_kronecker_matrices_match_their_checksums():
    pinned = json.loads(DATA.read_text())
    ours = checksums()
    assert len(ours) == 518
    assert sorted(ours) == sorted(pinned)
    assert [k for k in ours if ours[k] != pinned[k]] == []


if __name__ == "__main__":
    DATA.write_text(json.dumps(checksums(), indent=1, sort_keys=True) + "\n")
