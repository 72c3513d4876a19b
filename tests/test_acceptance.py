"""Acceptance suite: one test per criterion, each printing a pass/fail line.

Run with `pytest tests/test_acceptance.py -v -s` to see the per-criterion
lines.  The training-based criteria (5 and 6) dominate the runtime; the
whole module stays within its stated budgets on a single desktop core.
"""
import json
import math
import time
import warnings

import numpy as np
import pytest

from polymap.dataio import SynthSpec, TileSpec, gen_synthetic, tile_dataset, tile_positions
from polymap.geometry import Polygon, polygon_iou
from polymap.metrics import (
    GtInstance,
    PredInstance,
    coco_suite,
    c_iou,
    match_instances,
    matched_pairs,
    mta,
)
from polymap.polyloss import (
    PredDistSeq,
    VertexTokenSeq,
    align_inverse,
    align_shift,
    bidirectional_loss,
    exhaustive_alignment_loss,
    no_vertex_index,
)
from polymap.selftest import naive_bidirectional_loss

warnings.filterwarnings("ignore", message="batch_norm training")

GRID = 5
VOCAB = GRID * GRID + 1


def report(criterion: int, passed: bool, detail: str):
    print(f"ACCEPTANCE {criterion}: {'PASS' if passed else 'FAIL'} - {detail}")
    assert passed, f"criterion {criterion}: {detail}"


def random_gt(rng, m, k=None, distinct=False):
    if k is None:
        k = int(rng.randint(1, m))
    if distinct:
        cells = rng.choice(GRID * GRID, size=k, replace=False)
    else:
        cells = rng.randint(0, GRID * GRID, size=k)
    tokens = tuple(int(c) for c in cells) + (no_vertex_index(GRID),) * (m - k)
    return VertexTokenSeq(tokens=tokens, valid_count=k, grid_size=GRID)


def random_pred(rng, m):
    rows = rng.gamma(1.0, 1.0, size=(m, VOCAB)) + 1e-4
    rows /= rows.sum(axis=1, keepdims=True)
    return PredDistSeq(rows)


def square(x0, y0, side):
    return Polygon.from_points(
        [(x0, y0), (x0 + side, y0), (x0 + side, y0 + side), (x0, y0 + side)]
    )


def test_criterion_1_bidirectional_oracle_equivalence():
    rng = np.random.RandomState(1001)
    t0 = time.time()
    worst = 0.0
    for _ in range(500):
        m = int(rng.randint(3, 13))
        gt = random_gt(rng, m)
        pred = random_pred(rng, m)
        got, _ = bidirectional_loss(gt, pred)
        want = naive_bidirectional_loss(list(gt.tokens), gt.valid_count,
                                        pred.dists.tolist(), GRID)
        worst = max(worst, abs(got - want))
        assert exhaustive_alignment_loss(gt, pred) <= got + 1e-12
    elapsed = time.time() - t0
    report(1, worst <= 1e-12 and elapsed < 5.0,
           f"500 pairs, max |loss - oracle| = {worst:.2e}, {elapsed:.2f}s")


def test_criterion_2_orientation_invariance():
    rng = np.random.RandomState(1002)
    worst = 0.0
    cases = 0
    for _ in range(20):
        k = int(rng.randint(3, 11))
        gt = random_gt(rng, max(k + 2, 12), k=k, distinct=True)
        rows = np.zeros((len(gt), VOCAB))
        for i, t in enumerate(gt.tokens):
            rows[i, t] = 1.0
        base = PredDistSeq(rows)
        for r in range(k):
            rotated = align_shift(base, r, k)
            for pred in (rotated, align_inverse(rotated, k)):
                loss, _ = bidirectional_loss(gt, pred)
                worst = max(worst, loss)
                cases += 1
    report(2, worst < 1e-6,
           f"{cases} rotation/reflection alignments (K <= 10), max loss = {worst:.2e}")


def test_criterion_3_gradient_correctness():
    from polymap.selftest import (
        check_full_graph_gradients,
        check_op_gradients,
        check_roi_align,
    )

    t0 = time.time()
    rng = np.random.RandomState(1003)
    results = check_op_gradients(rng)
    results.append(check_roi_align(rng))
    results.append(check_full_graph_gradients(rng))
    elapsed = time.time() - t0
    bad = [r.name for r in results if not r.passed]
    report(3, not bad and elapsed < 60.0,
           f"{len(results)} gradient checks (ops + full head at d=16, G=8, M=6), "
           f"failures: {bad or 'none'}, {elapsed:.1f}s")


def greedy_match_oracle(iou_mat, threshold):
    n_pred, n_gt = iou_mat.shape

    def best_assignment(i, used):
        if i == n_pred:
            return []
        candidates = [None] + [
            j for j in range(n_gt) if j not in used and iou_mat[i, j] >= threshold
        ]
        best = None
        best_key = None
        for j in candidates:
            key = (-1.0, 0) if j is None else (iou_mat[i, j], -j)
            rest = best_assignment(i + 1, used | {j} if j is not None else used)
            full_key = [key] + [k for k, _ in rest]
            if best_key is None or full_key > best_key:
                best_key = full_key
                best = [(key, j)] + rest
        return best

    return [j for _, j in best_assignment(0, frozenset())]


def test_criterion_4_metric_hand_cases_and_matcher_oracle():
    # Hand-derived values.
    third = polygon_iou(square(0, 0, 1),
                        Polygon.from_points([(0.5, 0), (1.5, 0), (1.5, 1), (0.5, 1)]),
                        resolution=256)
    ok_third = abs(third - 1 / 3) <= 0.02

    gts = [GtInstance(1, square(0, 0, 8))]
    split = Polygon.from_points(
        [(0, 0), (4, 0), (8, 0), (8, 4), (8, 8), (4, 8), (0, 8), (0, 4)]
    )
    ciou = c_iou(matched_pairs([PredInstance(1, split, 0.9)], gts))
    ok_ciou = abs(ciou - 2 / 3) <= 1e-9

    s = math.sqrt(2)
    rotated = Polygon.from_points([(s, 0), (0, s), (-s, 0), (0, -s)])
    angle = mta(square(-1, -1, 2), rotated, samples=256)
    ok_mta = abs(angle - math.pi / 4) <= 0.02

    r = coco_suite([PredInstance(1, square(3, 0, 13), 0.9)], [GtInstance(1, square(0, 0, 13))])
    ok_ap = abs(r.ap - 0.3) <= 1e-12 and r.ap50 == 1.0 and r.ap75 == 0.0

    # Matcher vs exhaustive assignment on 200 random scenes.
    rng = np.random.RandomState(1004)
    mismatches = 0
    for _ in range(200):
        n_gt = int(rng.randint(1, 4))
        n_pred = int(rng.randint(1, 4))
        gts_s = [
            GtInstance(1, square(rng.uniform(0, 24), rng.uniform(0, 24), rng.uniform(4, 10)))
            for _ in range(n_gt)
        ]
        preds_s = [
            PredInstance(1, square(rng.uniform(0, 24), rng.uniform(0, 24), rng.uniform(4, 10)),
                         float(rng.rand()))
            for _ in range(n_pred)
        ]
        matches = match_instances(preds_s, gts_s, 0.3)
        order_p = sorted(preds_s, key=lambda p: (-p.score, tuple(p.polygon.to_flat())))
        order_g = sorted(gts_s, key=lambda g: tuple(g.polygon.to_flat()))
        mat = np.array([[polygon_iou(p.polygon, g.polygon) for g in order_g] for p in order_p])
        want = greedy_match_oracle(mat, 0.3)
        by_pred = {id(m.pred): m for m in matches}
        got = [None if by_pred[id(p)].gt is None else order_g.index(by_pred[id(p)].gt)
               for p in order_p]
        if got != want:
            mismatches += 1
    report(4, ok_third and ok_ciou and ok_mta and ok_ap and mismatches == 0,
           f"IoU={third:.4f} (1/3), C-IoU={ciou:.4f} (2/3), MTA={angle:.4f} (pi/4), "
           f"AP trace={r.ap:.2f} (0.3); matcher mismatches: {mismatches}/200")


TOY_CORPUS = dict(families=("rect", "l_shape"), fg_level=150, bg_level=90,
                  noise=25, speckle=0.5)
TOY_SEEDS = (0, 1, 2)


@pytest.mark.slow
def test_criterion_5_hierarchical_encoder_direction():
    from polymap.metrics import evaluate_instances
    from polymap.neural.head import PolygonHeadConfig
    from polymap.neural.training import corpus_samples, predict_corpus, train_toy

    t0 = time.time()
    train_doc, train_rasters = gen_synthetic(SynthSpec(n_images=500, seed=41, **TOY_CORPUS))
    eval_doc, eval_rasters = gen_synthetic(SynthSpec(n_images=200, seed=913, **TOY_CORPUS))

    base_cfg = PolygonHeadConfig.desk(channels=24, decoder_blocks=2)
    train_samples = corpus_samples(train_doc, train_rasters, base_cfg)
    eval_samples = corpus_samples(eval_doc, eval_rasters, base_cfg)

    results: dict[str, list] = {"hierarchical": [], "none": []}
    for variant in results:
        cfg = PolygonHeadConfig.desk(channels=24, decoder_blocks=2, encoder_variant=variant)
        for seed in TOY_SEEDS:
            store, hist = train_toy(
                train_samples, cfg, seed=seed, epochs=3, batch_size=8,
                lr=1.5e-3, detection=True,
            )
            final_sv = float(np.mean([b.sv for b in hist.steps[-25:]]))
            report_ = evaluate_instances(*predict_corpus(store, cfg, eval_doc, eval_samples))
            results[variant].append((final_sv, report_))

    med = {v: {
        "ap": float(np.median([r.ap for _, r in runs])),
        "sv": float(np.median([sv for sv, _ in runs])),
        "n": float(np.median([r.n_ratio for _, r in runs])),
        "ciou": float(np.median([r.c_iou for _, r in runs])),
    } for v, runs in results.items()}
    elapsed = time.time() - t0

    ok = (
        med["hierarchical"]["ap"] > med["none"]["ap"]
        and med["hierarchical"]["sv"] < med["none"]["sv"]
        and 0.9 <= med["hierarchical"]["n"] <= 1.1
        and med["hierarchical"]["ciou"] > 0.7
        and elapsed < 1800
    )
    report(5, ok,
           f"median of {len(TOY_SEEDS)} seeds: AP {med['hierarchical']['ap']:.4f} vs "
           f"{med['none']['ap']:.4f}, final L_sv {med['hierarchical']['sv']:.4f} vs "
           f"{med['none']['sv']:.4f}, N ratio {med['hierarchical']['n']:.3f}, "
           f"C-IoU {med['hierarchical']['ciou']:.3f}, {elapsed / 60:.1f} min")


@pytest.mark.slow
def test_criterion_6_loss_weighting_direction():
    from polymap.neural.head import PolygonHeadConfig
    from polymap.neural.training import corpus_samples, held_out_sv_loss, train_toy
    from polymap.polyloss import LossWeights

    train_doc, train_rasters = gen_synthetic(SynthSpec(n_images=150, seed=77, **TOY_CORPUS))
    eval_doc, eval_rasters = gen_synthetic(SynthSpec(n_images=80, seed=517, **TOY_CORPUS))
    cfg = PolygonHeadConfig.desk(channels=24, decoder_blocks=2)
    train_samples = corpus_samples(train_doc, train_rasters, cfg)
    eval_samples = corpus_samples(eval_doc, eval_rasters, cfg)

    held: dict[float, list[float]] = {1.0: [], 0.01: []}
    for lam_poly in held:
        weights = LossWeights(lambda_cls=1.0, lambda_bbox=1.0, lambda_poly=lam_poly)
        for seed in TOY_SEEDS:
            store, _ = train_toy(
                train_samples, cfg, seed=seed, epochs=4, batch_size=8, lr=1.5e-3,
                weights=weights, detection=True, stem_lr_scale=1.0,
            )
            held[lam_poly].append(held_out_sv_loss(store, cfg, eval_samples))

    med_full = float(np.median(held[1.0]))
    med_down = float(np.median(held[0.01]))
    report(6, med_full < med_down,
           f"held-out L_sv, median of {len(TOY_SEEDS)} seeds: "
           f"lambda=(1,1,1) {med_full:.4f} < lambda=(1,1,0.01) {med_down:.4f} "
           f"(per-seed: {[round(v, 4) for v in held[1.0]]} vs "
           f"{[round(v, 4) for v in held[0.01]]})")


def test_criterion_7_tiling_arithmetic():
    spec = TileSpec()
    xs = tile_positions(5000, spec.tile_size, spec.tile_size - spec.overlap)
    from polymap.dataio import CocoDoc

    doc = CocoDoc(data={
        "images": [{"id": 1, "width": 5000, "height": 5000, "file_name": "big.pgm"}],
        "annotations": [],
        "categories": [],
    })
    n_tiles = len(tile_dataset(doc, spec).images)

    # 50% rule on a constructed straddling instance: tiles at x = 0 and 80
    # (size 100, overlap 20); a rect spanning x 28..128 keeps 72% in tile 0
    # and 48% in tile 1.
    small = TileSpec(tile_size=100, overlap=20, min_area_fraction=0.5)
    doc2 = CocoDoc(data={
        "images": [{"id": 1, "width": 180, "height": 100, "file_name": "t.pgm"}],
        "annotations": [{
            "id": 1, "image_id": 1, "category_id": 1,
            "segmentation": [[28, 10, 128, 10, 128, 40, 28, 40]],
            "bbox": [28, 10, 100, 30], "area": 3000.0,
        }],
        "categories": [],
    })
    tiled = tile_dataset(doc2, small)
    kept_tiles = sorted({a["image_id"] for a in tiled.annotations})
    report(7, len(xs) == 13 and n_tiles == 169 and kept_tiles == [1],
           f"{len(xs)} positions/axis, {n_tiles} tiles; straddler kept only in 72% tile "
           f"(tiles with instance: {kept_tiles})")


def test_criterion_8_determinism(tmp_path):
    from polymap.cli import main

    def run(*argv):
        return main([str(a) for a in argv])

    corpus = tmp_path / "corpus"
    assert run("gen-synth", "--out-dir", corpus, "--images", 6, "--seed", 5,
               "--families", "rect,l_shape") == 0
    gt = corpus / "annotations.json"
    pred = tmp_path / "pred.json"
    doc = json.loads(gt.read_text())
    doc["annotations"] = [dict(a, score=0.9) for a in doc["annotations"]]
    pred.write_text(json.dumps(doc))

    eval_outs = []
    selftest_outs = []
    train_dirs = []
    for run_idx in (1, 2):
        e_out = tmp_path / f"eval{run_idx}.json"
        s_out = tmp_path / f"selftest{run_idx}.json"
        t_dir = tmp_path / f"train{run_idx}"
        assert run("eval", gt, pred, "--out", e_out) == 0
        assert run("selftest", "--out", s_out) == 0
        assert run("train-toy", "--corpus", corpus, "--out-dir", t_dir,
                   "--epochs", 1, "--batch-size", 4, "--grid", 8, "--channels", 16,
                   "--decoder-blocks", 1, "--queries", 8, "--seed", 3) == 0
        eval_outs.append(e_out.read_bytes())
        selftest_outs.append(s_out.read_bytes())
        train_dirs.append(t_dir)

    same_eval = eval_outs[0] == eval_outs[1]
    same_selftest = selftest_outs[0] == selftest_outs[1]
    same_ckpt = ((train_dirs[0] / "checkpoint.pmck").read_bytes()
                 == (train_dirs[1] / "checkpoint.pmck").read_bytes())
    same_curve = ((train_dirs[0] / "loss_curve.csv").read_bytes()
                  == (train_dirs[1] / "loss_curve.csv").read_bytes())
    report(8, same_eval and same_selftest and same_ckpt and same_curve,
           f"bit-identical consecutive runs: eval={same_eval}, selftest={same_selftest}, "
           f"train checkpoint={same_ckpt}, loss curve={same_curve}")
