//! The parity stripe's invariant, shared by the integration tests that
//! check it (included with `#[path]`; not a test target of its own).

use dali::codeword::CodewordProtection;
use dali::mem::DbImage;

/// `group`'s parity buffer equals the XOR of its member regions read
/// from `image`, and its maintained parity codeword verifies. The caller
/// holds the group's latches exclusively or has quiesced updaters.
pub fn group_exact(image: &DbImage, prot: &CodewordProtection, group: usize) -> Result<(), String> {
    let stripe = prot.parity().expect("stripe enabled");
    let geom = prot.geometry();
    let size = geom.region_size();
    let (first, last) = stripe.members(group);
    let mut members = vec![0u8; (last - first + 1) * size];
    image
        .read(geom.region_base(first), &mut members)
        .map_err(|e| e.to_string())?;
    let mut want = vec![0u8; size];
    for region in members.chunks_exact(size) {
        for (w, b) in want.iter_mut().zip(region) {
            *w ^= b;
        }
    }
    let mut buf = vec![0u8; size];
    stripe.copy_group(group, &mut buf);
    if buf != want {
        return Err(format!(
            "parity group {group} is not the XOR of its members"
        ));
    }
    if !stripe.verify_group(group) {
        return Err(format!("parity group {group} fails its codeword"));
    }
    Ok(())
}

/// [`group_exact`] for every group of `prot`'s stripe.
pub fn stripe_exact(image: &DbImage, prot: &CodewordProtection) -> Result<(), String> {
    let groups = prot.parity().expect("stripe enabled").num_groups();
    (0..groups).try_for_each(|g| group_exact(image, prot, g))
}
