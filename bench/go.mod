module origami/bench

go 1.22

require origami v0.0.0

replace origami => ../
