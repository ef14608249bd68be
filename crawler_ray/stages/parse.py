"""Page parsers — stateless functions from one decoded page to row dicts.

Re-expresses the reference's parser family (SURVEY.md §2.2):

- M1 envelope parse + ``IsSuccess`` predicate (``ShiweijiaCategory.cs:62-81``,
  ``ShiweijiaProduct.cs:105-127``), checked by the fused stage before a
  parser runs,
- M2 recursive category-tree walk → rows (``ShiweijiaCategory.ParseItem``,
  ``:83-107``) — stack-based here, flattening ``Data[].Subs[]`` into
  ``(id, name, img, parent_id)`` adjacency rows,
- M3 product-list rows + *next-page successor generation*
  (``ShiweijiaProduct.ParseSave:105-127``): the reference's do/while control
  flow becomes data — each list page emits detail successors plus one
  next-page frontier row while ``page_index < ceil(total/page_size)`` (A2),
- M4/M5 product-detail projection + spec extraction
  (``ShiweijiaProduct.ParseProduct:226-265``, ``GetSpecifications:271-296``,
  empty values dropped).

Each parser maps one decoded page to row dicts with a ``row_type``
discriminator (succ | category | product | brand); the fused crawl
stage (``stages/process.py``) looks the parser up in ``_PARSERS`` by page
kind.
"""

from __future__ import annotations

import json

from crawler_ray.functions.urls import normalize_url, url_host


def _succ(url: str, kind: str, parent, caption: str = "") -> dict:
    u = normalize_url(url)
    return {
        "row_type": "succ",
        "url": u,
        "host": url_host(u),
        "kind": kind,
        "depth": parent["depth"] + 1,
        "priority": parent["priority"],
        "seed_id": parent["seed_id"],
        "caption": caption,
        "record": "",
    }


def _parse_category_tree(doc: dict, parent: dict) -> list[dict]:
    """M2: stack-walk the nested tree; emit category records + successors
    (leaf → first product-list page; every node image → image successor)."""
    out: list[dict] = []
    host = parent["host"]
    stack = [(node, None) for node in reversed(doc.get("Data") or [])]
    while stack:
        node, pid = stack.pop()
        cid = node.get("ID")
        subs = node.get("Subs") or []
        record = {
            "id": cid,
            "category_name": node.get("Name", ""),
            "category_img": node.get("Img", ""),
            "parent_id": pid,
            "host": host,
        }
        out.append(
            {
                "row_type": "category",
                "url": parent["url"],
                "host": host,
                "kind": "category_tree",
                "depth": parent["depth"],
                "priority": parent["priority"],
                "seed_id": parent["seed_id"],
                "caption": "",
                "record": json.dumps(record, ensure_ascii=False, sort_keys=True),
            }
        )
        if node.get("Img"):
            out.append(
                _succ(node["Img"], "image", parent, caption=node.get("ImgCaption", ""))
            )
        if not subs:  # leaf → seed its product-list chain (O2 leaf filter)
            # resolve against the PARENT url (scheme+netloc preserved — works
            # for the https synthetic site and real http hosts/ports alike)
            from crawler_ray.functions.urls import url_join

            out.append(
                _succ(
                    url_join(parent["url"],
                             f"/api/QueryProductByPage?Category={cid}&PageIndex=1"),
                    "product_list",
                    parent,
                )
            )
        stack.extend((s, cid) for s in reversed(subs))
    return out


def _parse_product_list(doc: dict, parent: dict) -> list[dict]:
    """M3 + A2: detail successors for each row; one next-page successor while
    ``page_index < ceil(total / page_size)``."""
    from crawler_ray.functions.urls import url_join

    data = doc.get("Data") or {}
    rows = data.get("Rows") or []
    out = [
        _succ(
            url_join(parent["url"], f"/api/GetProductDetail?ProductId={r['ID']}"),
            "product_detail",
            parent,
        )
        for r in rows
        if r.get("ID") is not None
    ]
    total = int(data.get("Total") or 0)
    page_size = int(data.get("PageSize") or 1)
    page_index = int(data.get("PageIndex") or 1)
    page_count = -(-total // max(page_size, 1))
    if page_index < page_count:
        from crawler_ray.functions.urls import get_url_query_value

        cat = get_url_query_value(parent["url"], "Category")
        out.append(
            _succ(
                url_join(
                    parent["url"],
                    f"/api/QueryProductByPage?Category={cat}&PageIndex={page_index + 1}",
                ),
                "product_list",
                parent,
            )
        )
    return out


def _parse_product_detail(doc: dict, parent: dict) -> list[dict]:
    """M4/M5: wide product projection + spec dict (empty values dropped) +
    image successors carrying captions."""
    d = doc.get("Data") or {}
    specs: dict[str, str] = {}
    for para_group in d.get("Paras") or []:
        for p in para_group.get("Paras") or []:
            name, val = p.get("Name"), p.get("ParameterValue")
            if name and val:  # drop empties (GetSpecifications:287-291)
                specs[name] = val
    main_imgs = d.get("MainImgs") or []
    detail_imgs = d.get("DetailImgs") or []
    record = {
        "id": d.get("ID"),
        "product_code": d.get("ProductCode", ""),
        "brand_id": d.get("BrandId"),
        "brand_name": d.get("Brand", ""),
        "category_id": d.get("CategoryId"),
        "style": d.get("Pattern", ""),
        "name": d.get("Name", ""),
        "sale_price": d.get("SalePrice"),
        "cost_price": d.get("CostPrice"),
        "custom_price": d.get("CustomPrice"),
        "main_imgs": main_imgs,
        "detail_imgs": detail_imgs,
        "specifications": specs,
        "host": parent["host"],
    }
    out = [
        {
            "row_type": "product",
            "url": parent["url"],
            "host": parent["host"],
            "kind": "product_detail",
            "depth": parent["depth"],
            "priority": parent["priority"],
            "seed_id": parent["seed_id"],
            "caption": "",
            "record": json.dumps(record, ensure_ascii=False, sort_keys=True),
        }
    ]
    captions = d.get("ImgCaptions") or {}
    for img_url in list(main_imgs) + list(detail_imgs):
        out.append(_succ(img_url, "image", parent, caption=captions.get(img_url, "")))

    # J1 brand lookup-or-insert (``ShiweijiaProduct.cs:228-240``): emit a
    # brand entity row per product; the process stage first-wins-dedups it
    # through the seen set (the Ray-native replacement for the reference's
    # DB lookup-or-insert) and the brand image is re-hosted through the
    # normal image pipeline. Row content is IDENTICAL for every discovering
    # product (key derived from the name, no per-product fields), so the
    # within-round race for "first" cannot affect the output bytes.
    brand_name = d.get("Brand") or ""
    if brand_name:
        import hashlib

        brand_img = d.get("BrandImg") or ""
        brecord = {
            "brand_key": hashlib.md5(brand_name.encode("utf-8")).hexdigest()[:12],
            "brand_name": brand_name,
            "brand_img": brand_img,
            "host": parent["host"],
        }
        out.append(
            {
                "row_type": "brand",
                "url": "",
                "host": parent["host"],
                "kind": "brand",
                # no per-discovery fields (depth/priority/seed zeroed):
                # every emission of a brand is byte-identical
                "depth": 0,
                "priority": 0.0,
                "seed_id": "",
                "caption": brand_name,
                "record": json.dumps(brecord, ensure_ascii=False, sort_keys=True),
            }
        )
        if brand_img:
            out.append(_succ(brand_img, "image", parent, caption=brand_name))
    return out


_PARSERS = {
    "category_tree": _parse_category_tree,
    "product_list": _parse_product_list,
    "product_detail": _parse_product_detail,
}

