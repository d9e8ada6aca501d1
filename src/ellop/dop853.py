"""Explicit Runge-Kutta 8(5,3) of Dormand and Prince for complex systems.

A port of scipy.integrate.solve_ivp(method="DOP853") with dense output,
events, max_step, first_step and real dtypes left out: the same numpy
expressions in the same order, so it takes the same steps and returns the
same bits as scipy 1.17.1 for rtol = atol = tol.  The tableau below is
copied from scipy/integrate/_ivp/dop853_coefficients.py with its decimal
literals; the method is Hairer, Norsett and Wanner, Solving Ordinary
Differential Equations I, Sec. II.10.  The stage loop reads each stage's
row of A and node of C from _STAGES, a table built once at import.  scipy
is (c) 2001-2002 Enthought, Inc., 2003 SciPy Developers, under the
BSD-3-Clause license.
"""

from __future__ import annotations

import numpy as np

N_STAGES = 12
ERROR_EXPONENT = -1 / 8          # -1 / (error estimator order 7 + 1)
SAFETY = 0.9
MIN_FACTOR = 0.2                 # largest decrease of the step size
MAX_FACTOR = 10                  # largest increase of the step size

C = np.array([0.0,
              0.526001519587677318785587544488e-01,
              0.789002279381515978178381316732e-01,
              0.118350341907227396726757197510,
              0.281649658092772603273242802490,
              0.333333333333333333333333333333,
              0.25,
              0.307692307692307692307692307692,
              0.651282051282051282051282051282,
              0.6,
              0.857142857142857142857142857142,
              1.0])

A = np.zeros((N_STAGES + 1, N_STAGES))
A[1, 0] = 5.26001519587677318785587544488e-2

A[2, 0] = 1.97250569845378994544595329183e-2
A[2, 1] = 5.91751709536136983633785987549e-2

A[3, 0] = 2.95875854768068491816892993775e-2
A[3, 2] = 8.87627564304205475450678981324e-2

A[4, 0] = 2.41365134159266685502369798665e-1
A[4, 2] = -8.84549479328286085344864962717e-1
A[4, 3] = 9.24834003261792003115737966543e-1

A[5, 0] = 3.7037037037037037037037037037e-2
A[5, 3] = 1.70828608729473871279604482173e-1
A[5, 4] = 1.25467687566822425016691814123e-1

A[6, 0] = 3.7109375e-2
A[6, 3] = 1.70252211019544039314978060272e-1
A[6, 4] = 6.02165389804559606850219397283e-2
A[6, 5] = -1.7578125e-2

A[7, 0] = 3.70920001185047927108779319836e-2
A[7, 3] = 1.70383925712239993810214054705e-1
A[7, 4] = 1.07262030446373284651809199168e-1
A[7, 5] = -1.53194377486244017527936158236e-2
A[7, 6] = 8.27378916381402288758473766002e-3

A[8, 0] = 6.24110958716075717114429577812e-1
A[8, 3] = -3.36089262944694129406857109825
A[8, 4] = -8.68219346841726006818189891453e-1
A[8, 5] = 2.75920996994467083049415600797e1
A[8, 6] = 2.01540675504778934086186788979e1
A[8, 7] = -4.34898841810699588477366255144e1

A[9, 0] = 4.77662536438264365890433908527e-1
A[9, 3] = -2.48811461997166764192642586468
A[9, 4] = -5.90290826836842996371446475743e-1
A[9, 5] = 2.12300514481811942347288949897e1
A[9, 6] = 1.52792336328824235832596922938e1
A[9, 7] = -3.32882109689848629194453265587e1
A[9, 8] = -2.03312017085086261358222928593e-2

A[10, 0] = -9.3714243008598732571704021658e-1
A[10, 3] = 5.18637242884406370830023853209
A[10, 4] = 1.09143734899672957818500254654
A[10, 5] = -8.14978701074692612513997267357
A[10, 6] = -1.85200656599969598641566180701e1
A[10, 7] = 2.27394870993505042818970056734e1
A[10, 8] = 2.49360555267965238987089396762
A[10, 9] = -3.0467644718982195003823669022

A[11, 0] = 2.27331014751653820792359768449
A[11, 3] = -1.05344954667372501984066689879e1
A[11, 4] = -2.00087205822486249909675718444
A[11, 5] = -1.79589318631187989172765950534e1
A[11, 6] = 2.79488845294199600508499808837e1
A[11, 7] = -2.85899827713502369474065508674
A[11, 8] = -8.87285693353062954433549289258
A[11, 9] = 1.23605671757943030647266201528e1
A[11, 10] = 6.43392746015763530355970484046e-1

A[12, 0] = 5.42937341165687622380535766363e-2
A[12, 5] = 4.45031289275240888144113950566
A[12, 6] = 1.89151789931450038304281599044
A[12, 7] = -5.8012039600105847814672114227
A[12, 8] = 3.1116436695781989440891606237e-1
A[12, 9] = -1.52160949662516078556178806805e-1
A[12, 10] = 2.01365400804030348374776537501e-1
A[12, 11] = 4.47106157277725905176885569043e-2

B = A[N_STAGES]

E3 = np.zeros(N_STAGES + 1)
E3[:-1] = B.copy()
E3[0] -= 0.244094488188976377952755905512
E3[8] -= 0.733846688281611857341361741547
E3[11] -= 0.220588235294117647058823529412e-1

E5 = np.zeros(N_STAGES + 1)
E5[0] = 0.1312004499419488073250102996e-1
E5[5] = -0.1225156446376204440720569753e+1
E5[6] = -0.4957589496572501915214079952
E5[7] = 0.1664377182454986536961530415e+1
E5[8] = -0.3503288487499736816886487290
E5[9] = 0.3341791187130174790297318841
E5[10] = 0.8192320648511571246570742613e-1
E5[11] = -0.2235530786388629525884427845e-1


# (s, A[s, :s], C[s]) of the stages after the first, built once; the row is
# cast to complex as np.dot would cast it against the complex K, and C[s] to
# a float
_STAGES = tuple((s, A[s, :s].astype(complex), float(C[s]))
                for s in range(1, N_STAGES))


def _rms(x):
    return np.linalg.norm(x) / x.size ** 0.5


def _initial_step(fun, y0, f0, t_bound, tol):
    """scipy's select_initial_step at t0 = 0 (Hairer et al., Sec. II.4)."""
    scale = tol + np.abs(y0) * tol
    d0 = _rms(y0 / scale)
    d1 = _rms(f0 / scale)
    if d0 < 1e-5 or d1 < 1e-5:
        h0 = 1e-6
    else:
        h0 = 0.01 * d0 / d1
    h0 = min(h0, t_bound)
    y1 = y0 + h0 * f0
    f1 = fun(h0, y1)
    d2 = _rms((f1 - f0) / scale) / h0
    if d1 <= 1e-15 and d2 <= 1e-15:
        h1 = max(1e-6, h0 * 1e-3)
    else:
        h1 = (0.01 / max(d1, d2)) ** (1 / 8)
    return min(100 * h0, h1, t_bound)


def _rk_step(fun, t, y, f, h, K):
    K[0] = f
    for s, a, c in _STAGES:
        dy = np.dot(K[:s].T, a) * h
        K[s] = fun(t + c * h, y + dy)
    y_new = y + h * np.dot(K[:-1].T, B)
    f_new = fun(t + h, y_new)
    K[-1] = f_new
    return y_new, f_new


def _error_norm(K, h, scale):
    err5 = np.dot(K.T, E5) / scale
    err3 = np.dot(K.T, E3) / scale
    err5_norm_2 = np.linalg.norm(err5)**2
    err3_norm_2 = np.linalg.norm(err3)**2
    if err5_norm_2 == 0 and err3_norm_2 == 0:
        return 0.0
    denom = err5_norm_2 + 0.01 * err3_norm_2
    return np.abs(h) * err5_norm_2 / np.sqrt(denom * len(scale))


def integrate(fun, y0, t_bound: float, tol: float):
    """y(t_bound) of y' = fun(t, y), y(0) = y0 (complex, 1-d), t_bound > 0,
    with rtol = atol = tol; None when the step size falls below ten
    spacings of the floats at t.  scipy raises an rtol below 100 eps to
    that floor, so the steps match its only for tol >= 100 eps."""
    y = np.asarray(y0, dtype=complex)
    t = 0.0
    f = fun(t, y)
    h_abs = _initial_step(fun, y, f, t_bound, tol)
    K = np.empty((N_STAGES + 1, y.size), dtype=complex)
    while t != t_bound:
        min_step = 10 * np.abs(np.nextafter(t, np.inf) - t)
        if h_abs < min_step:
            h_abs = min_step
        rejected = False
        while True:
            if h_abs < min_step:
                return None
            t_new = min(t + h_abs, t_bound)
            h_abs = h = t_new - t
            y_new, f_new = _rk_step(fun, t, y, f, h, K)
            scale = tol + np.maximum(np.abs(y), np.abs(y_new)) * tol
            error_norm = _error_norm(K, h, scale)
            if error_norm < 1:
                break
            h_abs *= max(MIN_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
            rejected = True
        if error_norm == 0:
            factor = MAX_FACTOR
        else:
            factor = min(MAX_FACTOR, SAFETY * error_norm ** ERROR_EXPONENT)
        if rejected:
            factor = min(1, factor)
        h_abs *= factor
        t, y, f = t_new, y_new, f_new
    return y
