"""Independent reference implementations used to cross-check the package.

Everything here is written directly from the underlying math with plain
loops where possible, deliberately sharing no code with the library. The
exceptions are the test-only ops below and the old Swin block built from
them: they record on the package's tape, so their gradients can be
checked and compared with the package's.
"""

import math

import numpy as np

from skgedrive import autodiff as ad


# Test-only ops on the package's tape: the sums and the old Swin block's
# building blocks, which no part of the program records. Each follows the
# package's rules: the output is checked for finiteness by _apply, and a
# backward closure keeps only the arrays it reads.

def sum_(a, axis=None, keepdims=False):
    out_data = a.data.sum(axis=axis, keepdims=keepdims)

    def backward(g, sa):
        gg = g
        if axis is not None and not keepdims:
            gg = np.expand_dims(gg, axis)
        # a read-only broadcast view, stored as is by _accum
        ad._accum(sa, np.broadcast_to(gg, sa.shape).astype(sa.dtype, copy=False))

    return ad._apply(out_data, (a,), backward, "sum")


def matmul(a, b):
    """a @ b with numpy's batching over leading axes."""
    ad._check_dtypes(a, b, "matmul")
    # each operand is read only for the other one's gradient
    a_data = a.data if ad._needs(b) else None
    b_data = b.data if ad._needs(a) else None

    def backward(g, sa, sb):
        if sa is not None:
            ad._accum(sa, ad._unbroadcast(np.matmul(g, np.swapaxes(b_data, -1, -2)), sa.shape))
        if sb is not None:
            ad._accum(sb, ad._unbroadcast(np.matmul(np.swapaxes(a_data, -1, -2), g), sb.shape))

    return ad._apply(np.matmul(a.data, b.data), (a, b), backward, "matmul")


def pad2d(a, axis_pads):
    """Zero-pad; axis_pads is a per-axis list of (before, after)."""
    def backward(g, sa):
        idx = tuple(slice(b, g.shape[i] - aft if aft else None)
                    for i, (b, aft) in enumerate(axis_pads))
        ad._accum(sa, g[idx])

    return ad._apply(np.pad(a.data, axis_pads), (a,), backward, "pad")


def roll2d(a, shifts, axes):
    shifts = tuple(shifts)
    axes = tuple(axes)

    def backward(g, sa):
        ad._accum(sa, np.roll(g, tuple(-s for s in shifts), axis=axes))

    return ad._apply(np.roll(a.data, shifts, axis=axes), (a,), backward, "roll")


def gather_rows(table, idx):
    """out[k] = table[idx[k]]; scatter-add on the way back."""
    idx = np.asarray(idx)

    def backward(g, st):
        gt = np.zeros(st.shape, st.dtype)
        np.add.at(gt, idx, g)
        ad._accum(st, gt)

    return ad._apply(table.data[idx], (table,), backward, "gather_rows")


def softmax_lastdim(x, blocked=None):
    """The package's masked softmax kernel as an op of its own: blocked,
    when given, is a boolean array broadcastable to x whose True entries
    get weight exactly 0."""
    y = ad._masked_softmax(x.data, blocked)

    def backward(g, sx):
        ad._accum(sx, y * (g - ad._row_sum(g * y)))

    return ad._apply(y, (x,), backward, "softmax")


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


def build_sdc_per_image(cls_map, depth_m, cam, bev):
    """build_sdc in its earlier form, one np.maximum.at per image: the
    batched scatter must match it bit for bit."""
    b, h, w = cls_map.shape
    hb = wb = bev.size
    res = bev.resolution_m
    _, uu = np.meshgrid(np.arange(h), np.arange(w), indexing="ij")
    winner = np.full((b, hb, wb), -1, dtype=np.int64)
    for i in range(b):
        z = depth_m[i]
        x = (uu - cam.cx) * z / cam.focal
        rows = hb - 1 - np.rint(z / res).astype(np.int64)
        cols = np.rint(wb / 2.0 + x / res).astype(np.int64)
        keep = (rows >= 0) & (rows < hb) & (cols >= 0) & (cols < wb)
        np.maximum.at(winner[i], (rows[keep], cols[keep]), cls_map[i][keep])
    occ = np.zeros((b, 23, hb, wb), dtype=np.float32)
    bi, ri, ci = np.nonzero(winner >= 0)
    occ[bi, winner[bi, ri, ci], ri, ci] = 1.0
    return occ


def rotation_reference(heading_deg):
    a = math.radians(90.0 + heading_deg)
    return np.array([[math.cos(a), -math.sin(a)],
                     [math.sin(a), math.cos(a)]])


def depth_decode_reference(r, g, b):
    return (r + 256 * g + 65536 * b) / (256 ** 3 - 1) * 1000.0


def swin_block_reference(blk, x):
    """A SwinBlock's forward as pad, roll, window partition and per-head
    attention, each its own op: the composition the fused block replaced.

    Built from the test-only ops above, the package's ops and the block's
    own modules, so gradients can be compared with the block's as well.
    """
    b, h, ww, c = x.shape
    w, s = blk.window, blk.shift
    attn = blk.attn
    heads, hd, t = attn.heads, c // attn.heads, w * w
    hp, wp = -(-h // w) * w, -(-ww // w) * w
    shortcut = x
    x = blk.norm1(x)
    if (hp, wp) != (h, ww):
        x = pad2d(x, ((0, 0), (0, hp - h), (0, wp - ww), (0, 0)))
    if s:
        x = roll2d(x, (-s, -s), (1, 2))
    x = ad.reshape(x, (b, hp // w, w, wp // w, w, c))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    windows = ad.reshape(x, (-1, t, c))
    nw = windows.shape[0]

    # the mask from the window id of every padded-grid cell, rolled and cut
    wid = window_id_grid(hp, wp, w)
    wid[h:, :] = -1
    wid[:, ww:] = -1
    wid = np.roll(wid, (-s, -s), axis=(0, 1))
    ids = wid.reshape(hp // w, w, wp // w, w).transpose(0, 2, 1, 3).reshape(-1, t)
    blocked = np.zeros((ids.shape[0], t, t), dtype=bool)
    for k in range(ids.shape[0]):
        for i in range(t):
            for j in range(t):
                blocked[k, i, j] = i != j and (ids[k, i] != ids[k, j] or ids[k, i] < 0
                                               or ids[k, j] < 0)
    blocked = np.tile(blocked, (b, 1, 1))[:, None]

    qkv = attn.qkv(windows)

    def heads_first(lo):
        z = ad.slice_(qkv, (slice(None), slice(None), slice(lo, lo + c)))
        return ad.transpose(ad.reshape(z, (nw, t, heads, hd)), (0, 2, 1, 3))

    q, k, v = heads_first(0), heads_first(c), heads_first(2 * c)
    logits = ad.mul(matmul(q, ad.transpose(k, (0, 1, 3, 2))), attn.scale)
    bias = gather_rows(attn.rel_bias, attn._rel_index.reshape(-1))
    logits = ad.add(logits, ad.transpose(ad.reshape(bias, (t, t, heads)), (2, 0, 1)))
    weights = softmax_lastdim(logits, blocked=blocked)
    out = ad.reshape(ad.transpose(matmul(weights, v), (0, 2, 1, 3)), (nw, t, c))
    out = attn.proj(out)

    x = ad.reshape(out, (b, hp // w, wp // w, w, w, c))
    x = ad.transpose(x, (0, 1, 3, 2, 4, 5))
    x = ad.reshape(x, (b, hp, wp, c))
    if s:
        x = roll2d(x, (s, s), (1, 2))
    if (hp, wp) != (h, ww):
        x = ad.slice_(x, (slice(None), slice(0, h), slice(0, ww), slice(None)))
    x = ad.add(shortcut, x)
    return ad.add(x, blk.mlp(blk.norm2(x)))


# The per-token kernels as numpy's reductions and fresh temporaries. These are
# the formulas `autodiff` used before its channel reductions became GEMVs and
# its elementwise chains moved in place; each returns the forward value and
# the gradient for the upstream gradient g.

def gelu_composed(x, g):
    """tanh-form GELU and its input gradient."""
    u = math.sqrt(2.0 / math.pi) * (x + 0.044715 * (x * x * x))
    t = np.tanh(u)
    out = 0.5 * x * (1.0 + t)
    du = math.sqrt(2.0 / math.pi) * (1.0 + 3.0 * 0.044715 * x * x)
    return out, g * (0.5 * (1.0 + t) + 0.5 * x * (1.0 - t * t) * du)


def sigmoid_composed(x, g):
    """exp(min(x, 0)) / (1 + exp(-|x|)) and its input gradient."""
    out = np.exp(np.minimum(x, 0.0)) / (1.0 + np.exp(-np.abs(x)))
    return out, g * out * (1.0 - out)


def layer_norm_composed(x, gamma, beta, g, eps=1e-5):
    """Last-axis layer norm; returns out and the x, gamma, beta gradients."""
    mu = x.mean(axis=-1, keepdims=True)
    xc = x - mu
    s = np.sqrt((xc * xc).mean(axis=-1, keepdims=True) + eps)
    xh = xc / s
    lead = tuple(range(g.ndim - 1))
    dxh = g * gamma
    dx = (dxh - dxh.mean(axis=-1, keepdims=True)
          - xh * (dxh * xh).mean(axis=-1, keepdims=True)) / s
    return xh * gamma + beta, dx, (g * xh).sum(axis=lead), g.sum(axis=lead)


def masked_softmax_composed(x, blocked=None):
    """Max-subtracted last-axis softmax; blocked entries get exactly 0."""
    if blocked is not None:
        x = np.where(blocked, -np.inf, x)
    e = np.exp(x - x.max(axis=-1, keepdims=True))
    return e / e.sum(axis=-1, keepdims=True)


def window_attention_composed(qkv, table, rel_index, blocked, heads, scale, g):
    """Windowed multi-head attention; returns out, attn and the qkv and table
    gradients, the (nW, T, T) mask repeating over the windows' images."""
    nw, t, c3 = qkv.shape
    c = c3 // 3
    hd = c // heads
    parts = qkv.reshape(nw, t, 3, heads, hd).transpose(2, 0, 3, 1, 4)
    q = parts[0] * scale
    k, v = parts[1], parts[2]
    logits = q @ k.swapaxes(-1, -2) + table[rel_index].transpose(2, 0, 1)
    if blocked is not None:
        blocked = np.tile(blocked, (nw // blocked.shape[0], 1, 1))[:, None]
    attn = masked_softmax_composed(logits, blocked)
    out = (attn @ v).transpose(0, 2, 1, 3).reshape(nw, t, c)
    g4 = g.reshape(nw, t, heads, hd).transpose(0, 2, 1, 3)
    d_attn = g4 @ v.swapaxes(-1, -2)
    d_logits = attn * (d_attn - (d_attn * attn).sum(axis=-1, keepdims=True))
    d_qkv = np.empty((nw, t, 3, heads, hd), dtype=qkv.dtype)
    d_qkv[:, :, 0] = (d_logits @ k).transpose(0, 2, 1, 3) * scale
    d_qkv[:, :, 1] = (d_logits.swapaxes(-1, -2) @ q).transpose(0, 2, 1, 3)
    d_qkv[:, :, 2] = (attn.swapaxes(-1, -2) @ g4).transpose(0, 2, 1, 3)
    d_table = np.zeros_like(table)
    np.add.at(d_table, rel_index, d_logits.sum(axis=0).transpose(1, 2, 0))
    return out, attn, d_qkv.reshape(qkv.shape), d_table


def bce_dice_composed(p, y):
    """Clamped mean BCE plus global soft Dice, and its gradient for p."""
    pc = np.clip(p, 1e-7, 1.0 - 1e-7)
    q = np.abs(pc + (y - 1.0))
    n = p.size
    inter = (pc * y).sum()
    den = pc.sum() + y.sum() + 1e-6
    loss = -np.log(q).mean() + (1.0 - inter * 2.0 / den)
    gp = (1.0 - 2.0 * y) / (n * q) + y * (-2.0 / den) + 2.0 * inter / (den * den)
    return loss, gp * (pc == p)
