#[test]
fn probe_answers() {
    assert_eq!(alpha::probe(), 3);
}
