//! Seeded-bad fixture: a client that consumes one misspelled route and
//! one endpoint the routes file does not serve.

pub fn fetch() -> [&'static str; 5] {
    let ok_exact = "/v1/healthz";
    let ok_triple = "/v1/profile/rtx-3080/tiny/GMS";
    let typo = "/v1/workload";
    let unserved_endpoint = "/v1/roofline/rtx-3080/tiny/GMS";
    let ok_template = "/v1/store/record/wir/gnn";
    [ok_exact, ok_triple, typo, unserved_endpoint, ok_template]
}
