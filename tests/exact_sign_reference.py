"""The sign of the ascending series of either root family in exact integer
arithmetic: the tests' independent check of the signs hotspots.zeros
certifies from its fixed-point sums.

Both families' first roots are the first roots in z = x^2/4 of
S(z) = sum_k w_k (-z)^k / (k! (nu+1)_k), with w_k = 1 for the j-zero
(RootFamily.J_ZERO) and w_k = 2k+1 for the p-root (RootFamily.P_ROOT).  This
file imports nothing from hotspots, so that no code that proves a sign is
shared between the package and its check; it reads a family by its value.
"""

_SIGN_TERMS = 4096


def _exact_sign(nu, z, family) -> int:
    """Exact sign of S(z) for float or Fraction nu and z >= 0.

    With nu = p/q, z = a/b, A = aq and q_k = b k (p+kq), terms 0..K sum to
    N_K / (q_1 ... q_K), N_0 = 1, N_k = N_{k-1} q_k + w_k (-A)^k on ints.  Before
    adding term k, sign(N_{k-1}) is proven once the terms shrink from k on
    (w_{k+1} A < w_k q_{k+1}) and the alternating tail is below the partial sum
    (|N_{k-1}| q_k > w_k A^k); 0 means undecided within _SIGN_TERMS terms.
    """
    p, q = nu.as_integer_ratio()
    a, b = z.as_integer_ratio()
    big_a = a * q
    dw = 2 if family.value == "proot" else 0  # w_k = 1 + dw k
    num, power, q_k = 1, 1, b * (p + q)
    for k in range(1, _SIGN_TERMS + 2):
        power *= big_a
        w_k = 1 + dw * k
        head, term = num * q_k, w_k * power
        q_next = b * (k + 1) * (p + (k + 1) * q)
        if (w_k + dw) * big_a < w_k * q_next and abs(head) > term:
            return (num > 0) - (num < 0)
        num = head - term if k % 2 else head + term
        q_k = q_next
    return 0
