//! Clean fixture: a crate root that gates a whole module file on `test`.

#[cfg(test)]
mod helper;
