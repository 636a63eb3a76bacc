//! A compiled program's seeded initial memory: its `mem_init` runs
//! evaluated into a sparse word map, built once, on the first
//! functional check that asks for it
//! ([`crate::CompiledProgram::base_image`]), and shared behind an `Arc`
//! by every functional run over it. Compiling a program and timing it
//! never build the map.

use std::collections::HashMap;
use std::fmt;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ir::InitRun;

/// Hashes a word address with one folded 64×64→128 multiply. The keys
/// are addresses from compiled traces and tests, never untrusted input,
/// so no DoS-resistant hasher is needed; folding the high half in keeps
/// power-of-two strides from landing in one bucket.
#[derive(Debug, Default)]
pub struct WordHasher(u64);

impl Hasher for WordHasher {
    fn finish(&self) -> u64 {
        self.0
    }

    fn write(&mut self, _bytes: &[u8]) {
        unreachable!("word maps hash only u64 keys")
    }

    fn write_u64(&mut self, word: u64) {
        let p = u128::from(word) * 0x9E37_79B9_7F4A_7C15;
        self.0 = (p as u64) ^ ((p >> 64) as u64);
    }
}

/// Word address (`addr >> 3`) → value.
pub type WordMap = HashMap<u64, u64, BuildHasherDefault<WordHasher>>;

/// An immutable seeded memory image, shared behind an `Arc`. Build one
/// with [`BaseImage::seeded`].
pub struct BaseImage {
    words: WordMap,
}

impl fmt::Debug for BaseImage {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        f.debug_struct("BaseImage")
            .field("words", &self.words.len())
            .finish()
    }
}

impl BaseImage {
    /// The image `runs` (a compiled program's `mem_init`) describe,
    /// each run's generator evaluated once per word; a later run's word
    /// at the same address wins.
    #[must_use]
    pub fn seeded(runs: &[InitRun]) -> Self {
        let len: u64 = runs.iter().map(|run| run.words).sum();
        let mut words = WordMap::with_capacity_and_hasher(len as usize, Default::default());
        for run in runs {
            words.extend(run.iter().map(|(addr, v)| (addr >> 3, v)));
        }
        BaseImage { words }
    }

    /// Number of words in the base.
    #[must_use]
    pub fn len(&self) -> usize {
        self.words.len()
    }

    /// `true` if the base holds no words.
    #[must_use]
    pub fn is_empty(&self) -> bool {
        self.words.is_empty()
    }

    /// The seeded words, keyed by word address.
    #[must_use]
    pub fn words(&self) -> &WordMap {
        &self.words
    }
}
