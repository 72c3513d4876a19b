import json

import numpy as np
import pytest

from polymap.dataio import (
    CocoDoc,
    CocoFormatError,
    SynthSpec,
    TileSpec,
    gen_synthetic,
    load_corpus,
    parse_coco,
    read_pgm,
    save_corpus,
    serialize_coco,
    tile_dataset,
    tile_positions,
    write_pgm,
)
from polymap.geometry import Polygon, polygon_iou, signed_area
from polymap.metrics import evaluate_instances

MINIMAL = {
    "images": [{"id": 1, "width": 100, "height": 80, "file_name": "a.pgm"}],
    "annotations": [
        {
            "id": 7,
            "image_id": 1,
            "category_id": 1,
            "segmentation": [[10.0, 10.0, 40.0, 10.0, 40.0, 30.0, 10.0, 30.0]],
            "bbox": [10.0, 10.0, 30.0, 20.0],
            "area": 600.0,
        }
    ],
    "categories": [{"id": 1, "name": "building"}],
}


class TestParseCoco:
    def test_minimal_fixture(self):
        doc = parse_coco(json.dumps(MINIMAL))
        gts = doc.gt_instances()
        assert len(gts) == 1
        assert len(gts[0].polygon) == 4
        assert gts[0].image_id == 1
        assert gts[0].polygon is doc.polygons[0]  # built once, while validating

    def test_round_trip_fixed_point(self):
        blob1 = serialize_coco(parse_coco(json.dumps(MINIMAL)))
        blob2 = serialize_coco(parse_coco(blob1))
        assert blob1 == blob2

    def test_unknown_fields_preserved(self):
        data = dict(MINIMAL)
        data["info"] = {"origin": "unit-test", "nested": [1, 2.5, "x"]}
        data["annotations"] = [dict(MINIMAL["annotations"][0], custom_tag="keep-me")]
        doc = parse_coco(json.dumps(data))
        out = json.loads(serialize_coco(doc))
        assert out["info"] == data["info"]
        assert out["annotations"][0]["custom_tag"] == "keep-me"

    def test_odd_segmentation_names_annotation(self):
        data = dict(MINIMAL)
        data["annotations"] = [dict(MINIMAL["annotations"][0], segmentation=[[1, 2, 3, 4, 5]])]
        with pytest.raises(CocoFormatError, match="7"):
            parse_coco(json.dumps(data))

    def test_multi_ring_segmentation_names_annotation_and_ring_count(self):
        ring = MINIMAL["annotations"][0]["segmentation"][0]
        hole = [20.0, 15.0, 20.0, 25.0, 30.0, 25.0, 30.0, 15.0]
        data = dict(MINIMAL)
        data["annotations"] = [dict(MINIMAL["annotations"][0], segmentation=[ring, hole])]
        with pytest.raises(CocoFormatError, match="annotation 7: segmentation has 2 rings"):
            parse_coco(json.dumps(data))
        with pytest.raises(CocoFormatError, match="annotation 7: segmentation has 2 rings"):
            CocoDoc(data=data).gt_instances()

    def test_dangling_image_reference(self):
        data = dict(MINIMAL)
        data["annotations"] = [dict(MINIMAL["annotations"][0], image_id=99)]
        with pytest.raises(CocoFormatError, match="99"):
            parse_coco(json.dumps(data))

    def test_malformed_json(self):
        with pytest.raises(CocoFormatError, match="JSON"):
            parse_coco(b"{nope")

    def test_predictions_require_scores(self):
        doc = parse_coco(json.dumps(MINIMAL))
        with pytest.raises(CocoFormatError, match="score"):
            doc.pred_instances()
        scored = dict(MINIMAL)
        scored["annotations"] = [dict(MINIMAL["annotations"][0], score=0.75)]
        preds = parse_coco(json.dumps(scored)).pred_instances()
        assert preds[0].score == 0.75


class TestPgm:
    def test_round_trip(self, tmp_path):
        rng = np.random.RandomState(0)
        img = rng.randint(0, 256, size=(13, 17)).astype(np.uint8)
        path = tmp_path / "img.pgm"
        write_pgm(path, img)
        assert np.array_equal(read_pgm(path), img)

    def test_rejects_non_p5(self, tmp_path):
        path = tmp_path / "bad.pgm"
        path.write_bytes(b"P2\n2 2\n255\n0 1 2 3\n")
        with pytest.raises(ValueError, match="P5"):
            read_pgm(path)


class TestTiling:
    def test_position_arithmetic_5000(self):
        xs = tile_positions(5000, 512, 384)
        assert len(xs) == 13
        assert xs[0] == 0 and xs[-1] == 4488
        assert all(b - a <= 384 for a, b in zip(xs, xs[1:]))

    def test_total_tiles_169(self):
        spec = TileSpec()
        doc = CocoDoc(
            data={
                "images": [{"id": 1, "width": 5000, "height": 5000, "file_name": "big.pgm"}],
                "annotations": [],
                "categories": [],
            }
        )
        tiled = tile_dataset(doc, spec)
        assert len(tiled.images) == 169

    def test_small_image_single_tile(self):
        assert tile_positions(300, 512, 384) == [0]

    def _doc_with_rect(self, x0, y0, w, h, image_w=180, image_h=100):
        return CocoDoc(
            data={
                "images": [{"id": 1, "width": image_w, "height": image_h, "file_name": "t.pgm"}],
                "annotations": [
                    {
                        "id": 1,
                        "image_id": 1,
                        "category_id": 1,
                        "segmentation": [
                            [x0, y0, x0 + w, y0, x0 + w, y0 + h, x0, y0 + h]
                        ],
                        "bbox": [x0, y0, w, h],
                        "area": float(w * h),
                    }
                ],
                "categories": [{"id": 1, "name": "building"}],
            }
        )

    def test_interior_instance_vertex_exact(self):
        spec = TileSpec(tile_size=100, overlap=20, min_area_fraction=0.5)
        doc = self._doc_with_rect(10, 10, 40, 30)
        tiled = tile_dataset(doc, spec)
        first_tile = [a for a in tiled.annotations if a["image_id"] == 1]
        assert len(first_tile) == 1
        assert first_tile[0]["segmentation"][0] == [10, 10, 50, 10, 50, 40, 10, 40]

    def test_straddling_72_28_split(self):
        # Tiles at x = 0 and x = 80 (size 100).  A rect spanning x 28..128
        # keeps 72% in tile 0 (kept) and 48% in tile 1 (dropped).
        spec = TileSpec(tile_size=100, overlap=20, min_area_fraction=0.5)
        doc = self._doc_with_rect(28, 10, 100, 30)
        tiled = tile_dataset(doc, spec)
        by_tile = {}
        for a in tiled.annotations:
            by_tile.setdefault(a["image_id"], []).append(a)
        assert set(by_tile) == {1}
        clipped = Polygon.from_flat(by_tile[1][0]["segmentation"][0])
        x0c, y0c, x1c, y1c = clipped.bounds()
        assert x0c == pytest.approx(28, abs=1.0)
        assert x1c == pytest.approx(100, abs=1.0)

    def test_no_instance_in_non_intersecting_tile(self):
        spec = TileSpec(tile_size=100, overlap=20, min_area_fraction=0.5)
        doc = self._doc_with_rect(10, 10, 20, 20)
        tiled = tile_dataset(doc, spec)
        for a in tiled.annotations:
            assert a["image_id"] == 1  # only the first tile sees it

    def test_spec_validation(self):
        with pytest.raises(ValueError):
            TileSpec(tile_size=512, overlap=512)
        with pytest.raises(ValueError):
            TileSpec(min_area_fraction=0.0)


class TestSynthetic:
    def test_same_seed_identical(self):
        spec = SynthSpec(n_images=6, seed=11, noise=20.0, fg_level=180, bg_level=60)
        doc1, r1 = gen_synthetic(spec)
        doc2, r2 = gen_synthetic(spec)
        assert serialize_coco(doc1) == serialize_coco(doc2)
        assert set(r1) == set(r2)
        for name in r1:
            assert np.array_equal(r1[name], r2[name])

    def test_polygons_valid_and_in_bounds(self):
        doc, rasters = gen_synthetic(SynthSpec(n_images=10, seed=2))
        assert doc.annotations
        for a in doc.annotations:
            poly = Polygon.from_flat(a["segmentation"][0])
            assert abs(signed_area(poly)) > 0
            x0, y0, x1, y1 = poly.bounds()
            assert 0 <= x0 and x1 <= 64 and 0 <= y0 and y1 <= 64

    def test_shapes_do_not_overlap(self):
        doc, _ = gen_synthetic(SynthSpec(n_images=8, seed=4, min_shapes=2, max_shapes=3))
        by_image = {}
        for a in doc.annotations:
            by_image.setdefault(a["image_id"], []).append(
                Polygon.from_flat(a["segmentation"][0])
            )
        for polys in by_image.values():
            for i in range(len(polys)):
                for j in range(i + 1, len(polys)):
                    assert polygon_iou(polys[i], polys[j], resolution=64) == 0.0

    def test_identity_evaluation_is_perfect(self):
        doc, _ = gen_synthetic(SynthSpec(n_images=5, seed=6))
        gts = doc.gt_instances()
        scored = dict(doc.data)
        scored["annotations"] = [dict(a, score=1.0) for a in doc.annotations]
        preds = CocoDoc(data=scored).pred_instances()
        r = evaluate_instances(preds, gts)
        assert r.ap == r.ar == r.f1 == 1.0
        assert r.n_ratio == 1.0
        assert r.c_iou == 1.0
        assert r.mta == pytest.approx(0.0, abs=1e-6)  # arccos noise near dot = 1

    def test_corpus_save_load(self, tmp_path):
        spec = SynthSpec(n_images=3, seed=8)
        doc, rasters = gen_synthetic(spec)
        save_corpus(tmp_path, doc, rasters)
        doc2, rasters2 = load_corpus(tmp_path)
        assert serialize_coco(doc2) == serialize_coco(doc)
        for name in rasters:
            assert np.array_equal(rasters[name], rasters2[name])

    def test_spec_validation(self):
        with pytest.raises(ValueError, match="families"):
            SynthSpec(families=("hexagon",))
        with pytest.raises(ValueError):
            SynthSpec(min_shapes=0)
        with pytest.raises(ValueError):
            SynthSpec(fg_level=50, bg_level=60)
