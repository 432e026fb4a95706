// TB004 firing fixture: panicking patterns in a scan hot path.
fn read_slot(slots: &[u64], i: usize, version: Option<&Version>) -> u64 {
    let v = version.unwrap();
    let _ = v.row.get(0).expect("first column");
    slots[i]
}

// A slice pattern is not indexing; the indexing on the next line is.
fn first_of(pair: [usize; 2], xs: &[u64]) -> u64 {
    let [i, _] = pair;
    xs[i]
}
