// The only mention of alpha::in_comment outside alpha is this comment.
fn main() {
    let _ = alpha::make();
}
