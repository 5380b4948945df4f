"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the underlying math with plain
loops where possible, deliberately sharing no code with the library.
"""

import math

import numpy as np


def bilinear_positions(n_out, n_in):
    """Corner-aligned sample positions for a 1-d resize."""
    if n_out == 1:
        return np.array([(n_in - 1) / 2.0])
    return np.arange(n_out) * (n_in - 1) / (n_out - 1)


def bilinear_reference(src, out_h, out_w):
    """Per-pixel corner-aligned bilinear resize of a (B, H, W, C) array."""
    b, h, w, c = src.shape
    out = np.zeros((b, out_h, out_w, c), dtype=np.float64)
    rows = bilinear_positions(out_h, h)
    cols = bilinear_positions(out_w, w)
    for i, rf in enumerate(rows):
        r0 = min(int(math.floor(rf)), h - 2) if h > 1 else 0
        r1 = min(r0 + 1, h - 1)
        ar = rf - r0
        for j, cf in enumerate(cols):
            c0 = min(int(math.floor(cf)), w - 2) if w > 1 else 0
            c1 = min(c0 + 1, w - 1)
            ac = cf - c0
            out[:, i, j, :] = (
                (1 - ar) * (1 - ac) * src[:, r0, c0, :]
                + (1 - ar) * ac * src[:, r0, c1, :]
                + ar * (1 - ac) * src[:, r1, c0, :]
                + ar * ac * src[:, r1, c1, :]
            )
    return out


def softmax_reference(x, blocked=None):
    """Last-axis softmax; pairs flagged in blocked get probability 0."""
    x = np.asarray(x, dtype=np.float64)
    if blocked is None:
        m = x.max(axis=-1, keepdims=True)
        e = np.exp(x - m)
        return e / e.sum(axis=-1, keepdims=True)
    keep = ~np.asarray(blocked)
    shifted = np.where(keep, x, -np.inf)
    m = shifted.max(axis=-1, keepdims=True)
    e = np.where(keep, np.exp(x - m), 0.0)
    return e / e.sum(axis=-1, keepdims=True)


def layer_norm_reference(x, gamma, beta, eps=1e-5):
    x = np.asarray(x, dtype=np.float64)
    mu = x.mean(axis=-1, keepdims=True)
    var = x.var(axis=-1, keepdims=True)
    return (x - mu) / np.sqrt(var + eps) * gamma + beta


def gelu_reference(x):
    x = np.asarray(x, dtype=np.float64)
    k = math.sqrt(2.0 / math.pi)
    return 0.5 * x * (1.0 + np.tanh(k * (x + 0.044715 * x ** 3)))


def sigmoid_where_reference(x):
    """The single-exp stable logistic: exp(-|x|), picked by sign, over 1 + exp(-|x|)."""
    e = np.exp(-np.abs(x))
    return np.where(x >= 0, 1.0, e) / (1.0 + e)


def gru_reference(x, h, w_ih, w_hh, b_ih, b_hh):
    """One GRU step on row vectors, gates ordered reset / update / new."""
    hid = h.shape[-1]
    gi = x @ w_ih + b_ih
    gh = h @ w_hh + b_hh

    def part(g, k):
        return g[..., k * hid:(k + 1) * hid]

    r = 1.0 / (1.0 + np.exp(-(part(gi, 0) + part(gh, 0))))
    z = 1.0 / (1.0 + np.exp(-(part(gi, 1) + part(gh, 1))))
    n = np.tanh(part(gi, 2) + r * part(gh, 2))
    return (1.0 - z) * n + z * h


def window_id_grid(h, w, win):
    """Window index of each cell of an h x w grid, row-major windows."""
    ids = np.zeros((h, w), dtype=int)
    for i in range(h):
        for j in range(w):
            ids[i, j] = (i // win) * (w // win) + (j // win)
    return ids


def bce_reference(p, y, lo=1e-7):
    p = np.clip(np.asarray(p, dtype=np.float64), lo, 1.0 - lo)
    y = np.asarray(y, dtype=np.float64)
    return float(-np.mean(y * np.log(p) + (1 - y) * np.log(1 - p)))


def dice_reference(p, y, eps=1e-6):
    p = np.asarray(p, dtype=np.float64)
    y = np.asarray(y, dtype=np.float64)
    return float(1.0 - 2.0 * np.sum(p * y) / (np.sum(p) + np.sum(y) + eps))


def iou_reference(pred, gt):
    """Per-class IoU over boolean masks shaped (C, ...); empty/empty is 1."""
    per = []
    for c in range(pred.shape[0]):
        inter = np.logical_and(pred[c], gt[c]).sum()
        union = np.logical_or(pred[c], gt[c]).sum()
        per.append(1.0 if union == 0 else inter / union)
    return np.array(per)


def rc_reference(steps, total_length):
    """Completion percent: sum of distances of segments starting on-road."""
    covered = 0.0
    for k in range(len(steps) - 1):
        x0, y0, on = steps[k]
        x1, y1, _ = steps[k + 1]
        if on:
            covered += math.hypot(x1 - x0, y1 - y0)
    return min(100.0, covered / total_length * 100.0)


def ip_reference(kinds, table):
    p = 1.0
    for k in kinds:
        p *= table[k]
    return p


def sdc_reference(cls_map, depth, focal, cx, cy, bev_size, res):
    """Loop-based semantic depth cloud projection, highest class wins."""
    hb = wb = bev_size
    winner = -np.ones((hb, wb), dtype=int)
    hh, ww = cls_map.shape
    for v in range(hh):
        for u in range(ww):
            z = depth[v, u]
            x = (u - cx) * z / focal
            row = hb - 1 - int(np.rint(z / res))
            col = int(np.rint(wb / 2 + x / res))
            if 0 <= row < hb and 0 <= col < wb:
                winner[row, col] = max(winner[row, col], cls_map[v, u])
    return winner


def rotation_reference(heading_deg):
    a = math.radians(90.0 + heading_deg)
    return np.array([[math.cos(a), -math.sin(a)],
                     [math.sin(a), math.cos(a)]])


def depth_decode_reference(r, g, b):
    return (r + 256 * g + 65536 * b) / (256 ** 3 - 1) * 1000.0
