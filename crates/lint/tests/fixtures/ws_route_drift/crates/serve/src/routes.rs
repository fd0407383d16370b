//! Fixture served surface: two exact routes, a five-segment route
//! template, and a two-endpoint triple family.

pub const TRIPLE_ENDPOINTS: [&str; 2] = ["profile", "kernels"];

pub const RECORD_ROUTE: &str = "/v1/store/record/wir/{name}";

pub fn respond(path: &str) -> &'static str {
    match path {
        "/v1/healthz" => "ok",
        "/v1/workloads" => "csv",
        _ => "404",
    }
}
