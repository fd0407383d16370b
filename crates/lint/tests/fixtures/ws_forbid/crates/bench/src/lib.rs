//! Seeded-bad fixture: a bin-side helper writes the store itself.

fn persist(store: &mut Vec<u8>, mut record: Vec<u8>) {
    store.append(&mut record);
}
