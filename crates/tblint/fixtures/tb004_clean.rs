// TB004 clean fixture: total alternatives — `.get()` plus explicit error
// handling instead of panicking accessors, and a slice pattern, which
// destructures without indexing.
fn read_slot(slots: &[u64], pair: [usize; 2], version: Option<&Version>) -> Result<u64> {
    let v = version.ok_or_else(|| Error::Internal("slot has no live version".into()))?;
    let _ = v.row.values().first();
    let [lo, hi] = pair;
    Ok(slots.get(lo).or(slots.get(hi)).copied().unwrap_or(0))
}
