//! `Topology::serving_sector` against a brute-force reference on the tiny
//! world (`CountryConfig::tiny()` with `TopologyConfig::tiny()`, the pair
//! `SimConfig::tiny()` simulates on): for every RAT and every point of a
//! lattice that overhangs the country, the nearest hosting site by a scan
//! of all sites (lowest `SiteId` among equally near ones), then the face of
//! that site whose azimuth is closest to the bearing, the first such sector
//! in `site.sectors` order.

use telco_geo::coords::KmPoint;
use telco_geo::country::{Country, CountryConfig};
use telco_topology::deployment::{Topology, TopologyConfig};
use telco_topology::elements::SectorId;
use telco_topology::rat::Rat;

fn brute_force(topo: &Topology, point: &KmPoint, rat: Rat) -> Option<SectorId> {
    let site = topo
        .sites()
        .iter()
        .filter(|site| site.sectors.iter().any(|&s| topo.sector(s).rat == rat))
        .min_by(|a, b| {
            let d2 = |p: &KmPoint| {
                let (dx, dy) = (p.x - point.x, p.y - point.y);
                dx * dx + dy * dy
            };
            d2(&a.position).total_cmp(&d2(&b.position)).then(a.id.cmp(&b.id))
        })?;
    let bearing = (point.x - site.position.x).atan2(point.y - site.position.y).to_degrees();
    let bearing = if bearing < 0.0 { bearing + 360.0 } else { bearing };
    site.sectors.iter().copied().filter(|&s| topo.sector(s).rat == rat).min_by_key(|&s| {
        let az = topo.sector(s).azimuth_deg as f64;
        let diff = (bearing - az).abs();
        (diff.min(360.0 - diff) * 1000.0) as u64
    })
}

#[test]
fn serving_sector_matches_brute_force_on_tiny() {
    let country = Country::generate(CountryConfig::tiny());
    let topo = Topology::generate(&country, TopologyConfig::tiny());
    let b = country.bounds;
    let (nx, ny) = (120, 120);
    let mut served = 0usize;
    for rat in Rat::ALL {
        for i in 0..=nx {
            for j in 0..=ny {
                // 10% beyond each edge, so queries also fall outside.
                let x = b.min.x + b.width() * (-0.1 + 1.2 * i as f64 / nx as f64);
                let y = b.min.y + b.height() * (-0.1 + 1.2 * j as f64 / ny as f64);
                let q = KmPoint::new(x, y);
                let got = topo.serving_sector(&q, rat);
                assert_eq!(got, brute_force(&topo, &q, rat), "{rat:?} at ({x}, {y})");
                served += usize::from(got.is_some());
            }
        }
    }
    assert!(served > 0);
    // Site positions themselves: distance 0, bearing 0.
    for site in topo.sites() {
        for rat in Rat::ALL {
            assert_eq!(
                topo.serving_sector(&site.position, rat),
                brute_force(&topo, &site.position, rat)
            );
        }
    }
}
