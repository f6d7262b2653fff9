//! Engine JSON saved before the decision log was serialized with the
//! engine still loads: the policy decides the same, the old `audit`
//! object is ignored, and the log starts empty and then records.

use grbac_core::prelude::*;

/// An engine saved at the commit before the audit log folded into the
/// flight recorder: a `kids tv` permit for the `child` role, after one
/// audited permit (alice) and one audited deny (mom).
const LEGACY: &str = concat!(
    r#"{"roles":{"roles":[[0,{"id":0,"name":"child","kind":"Subject"}],[1,{"id":1,"name":"media","#,
    r#""kind":"Object"}]],"by_name":[[["Subject","child"],0],[["Object","media"],1]],"subject_hierarchy":{"generals":[[0,"#,
    r#"[]]],"specifics":[[0,[]]]},"object_hierarchy":{"generals":[[1,[]]],"specifics":[[1,"#,
    r#"[]]]},"environment_hierarchy":{"generals":[],"specifics":[]},"alloc":{"next":2}},"#,
    r#""entities":{"subjects":[[0,{"id":0,"name":"alice"}],[1,{"id":1,"name":"mom"}]],"subjects_by_name":[["alice","#,
    r#"0],["mom",1]],"objects":[[0,{"id":0,"name":"tv"}]],"objects_by_name":[["tv",0]],"transactions":[[0,"#,
    r#"{"id":0,"name":"use"}]],"transactions_by_name":[["use",0]],"subject_alloc":{"next":2},"#,
    r#""object_alloc":{"next":1},"transaction_alloc":{"next":1}},"assignments":{"subject_roles":[[0,"#,
    r#"[0]]],"object_roles":[[0,[1]]],"subjects_in_role":[[0,[0]]],"objects_in_role":[[1,"#,
    r#"[0]]]},"sod":{"constraints":[]},"sessions":{"sessions":[],"alloc":{"next":0}},"rules":[{"id":0,"#,
    r#""name":"kids tv","effect":"Permit","subject_role":{"Is":0},"object_role":{"Is":1},"#,
    r#""environment_roles":[],"transaction":{"Is":0},"min_confidence":null}],"rule_alloc":{"next":1},"#,
    r#""strategy":"DenyOverrides","default_effect":"Deny","default_min_confidence":1.0,"audit":{"records":[{"seq":0,"#,
    r#""decision_id":{"epoch":1792230518739437993,"seq":1},"subject":0,"transaction":0,"object":0,"#,
    r#""effect":"Permit","winning_rule":0,"timestamp":10,"degraded":null},{"seq":1,"decision_id":{"epoch":1792230518739437993,"#,
    r#""seq":2},"subject":1,"transaction":0,"object":0,"effect":"Deny","winning_rule":null,"#,
    r#""timestamp":20,"degraded":null}],"capacity":4096,"next_seq":2,"permits":1,"denies":1,"#,
    r#""evictions":0},"degraded":{"posture":"FailClosed","default_budget":0,"budgets":[]},"#,
    r#""delegation":{"rules":[],"grants":[],"next_id":0,"owned":[]}}"#,
);

#[test]
fn legacy_engine_json_loads_and_decides_the_same() {
    let engine: Grbac = serde_json::from_str(LEGACY).expect("legacy JSON loads");
    // The old audit object is ignored: the log starts empty.
    assert_eq!(engine.audit().total_recorded(), 0);
    assert!(engine.audit().is_empty());

    let alice = engine.entities().find_subject("alice").unwrap();
    let mom = engine.entities().find_subject("mom").unwrap();
    let tv = engine.entities().find_object("tv").unwrap();
    let use_t = engine.entities().find_transaction("use").unwrap();
    let env = EnvironmentSnapshot::new();
    let permit = engine
        .decide(&AccessRequest::by_subject(alice, use_t, tv, env.clone()).at(10))
        .unwrap();
    assert!(permit.is_permitted());
    assert_eq!(engine.rule_label(permit.winning_rule().unwrap()), "kids tv");
    let deny = engine
        .decide(&AccessRequest::by_subject(mom, use_t, tv, env).at(20))
        .unwrap();
    assert!(!deny.is_permitted());
    assert_eq!(deny.winning_rule(), None);

    let audit = engine.audit();
    assert_eq!(audit.total_recorded(), 2);
    assert_eq!((audit.permit_count(), audit.deny_count()), (1, 1));
    let rows: Vec<_> = audit
        .iter()
        .map(|row| (row.seq, row.subject, row.effect, row.timestamp))
        .collect();
    assert_eq!(
        rows,
        vec![
            (0, Some(alice), Effect::Permit, Some(10)),
            (1, Some(mom), Effect::Deny, Some(20)),
        ]
    );

    // Saved again, the engine writes its log and no `audit` object.
    let json = serde_json::to_string(&engine).unwrap();
    assert!(!json.contains("\"audit\""));
    let reloaded: Grbac = serde_json::from_str(&json).unwrap();
    assert_eq!(reloaded.audit().total_recorded(), 2);
    assert_eq!(
        reloaded.audit().iter().collect::<Vec<_>>(),
        audit.iter().collect::<Vec<_>>()
    );
}
