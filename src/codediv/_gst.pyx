# cython: language_level=3, boundscheck=False, wraparound=False, cdivision=True
"""Compiled exact greedy-string-tiling kernel.

Each round runs a dynamic program over all position pairs for the longest
common unmarked run, with the same tie break as codediv._gst_py.hashed_tiles
(smallest start in a, then in b); the tests check its tiles against a
brute-force tiling oracle. The scan allocates nothing and releases the GIL.
"""

from libc.stdlib cimport free, malloc
from libc.string cimport memset


def exact_tiles(const int[::1] a, const int[::1] b, int min_match):
    """Greedy string tiling tiles [(start_a, start_b, length), ...]."""
    cdef Py_ssize_t la = a.shape[0]
    cdef Py_ssize_t lb = b.shape[0]
    tiles = []
    if la == 0 or lb == 0 or min_match < 1:
        return tiles

    cdef unsigned char *marked_a = <unsigned char *> malloc(la)
    cdef unsigned char *marked_b = <unsigned char *> malloc(lb)
    cdef long *prev = <long *> malloc((lb + 1) * sizeof(long))
    cdef long *cur = <long *> malloc((lb + 1) * sizeof(long))
    if marked_a == NULL or marked_b == NULL or prev == NULL or cur == NULL:
        free(marked_a); free(marked_b); free(prev); free(cur)
        raise MemoryError()

    cdef Py_ssize_t i, j, best_i, best_j, row_j
    cdef long best_len, row_max, v
    cdef int ai
    cdef long *tmp
    try:
        memset(marked_a, 0, la)
        memset(marked_b, 0, lb)
        while True:
            best_len = 0
            best_i = -1
            best_j = -1
            with nogil:
                memset(prev, 0, (lb + 1) * sizeof(long))
                cur[lb] = 0
                for i in range(la - 1, -1, -1):
                    if marked_a[i]:
                        memset(cur, 0, lb * sizeof(long))
                    else:
                        ai = a[i]
                        row_max = 0
                        row_j = -1
                        for j in range(lb - 1, -1, -1):
                            if b[j] == ai and not marked_b[j]:
                                v = prev[j + 1] + 1
                            else:
                                v = 0
                            cur[j] = v
                            # j runs downward, so >= keeps the smallest j.
                            if v >= row_max and v > 0:
                                row_max = v
                                row_j = j
                        # i runs downward, so >= keeps the smallest i.
                        if row_max > 0 and row_max >= best_len:
                            best_len = row_max
                            best_i = i
                            best_j = row_j
                    tmp = prev
                    prev = cur
                    cur = tmp
            if best_len < min_match:
                break
            tiles.append((best_i, best_j, best_len))
            memset(marked_a + best_i, 1, best_len)
            memset(marked_b + best_j, 1, best_len)
    finally:
        free(marked_a)
        free(marked_b)
        free(prev)
        free(cur)
    return tiles
